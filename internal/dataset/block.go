package dataset

import (
	"fmt"
)

// BlockID addresses a block within a partition's grid.
type BlockID struct {
	Row, Col int64
}

func (id BlockID) String() string { return fmt.Sprintf("(%d,%d)", id.Row, id.Col) }

// Block is one tile of a partitioned dataset. Data is nil for lazy blocks
// (metadata-only simulation at paper scale) and a row-major float64 slice
// for materialized blocks (real execution).
type Block struct {
	ID         BlockID
	Rows, Cols int64
	Data       []float64
}

// NewBlock allocates a materialized zero block.
func NewBlock(id BlockID, rows, cols int64) *Block {
	return &Block{ID: id, Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewLazyBlock creates a metadata-only block.
func NewLazyBlock(id BlockID, rows, cols int64) *Block {
	return &Block{ID: id, Rows: rows, Cols: cols}
}

// Materialized reports whether the block carries data.
func (b *Block) Materialized() bool { return b.Data != nil }

// Bytes returns the block's in-memory size.
func (b *Block) Bytes() int64 { return b.Rows * b.Cols * ElemSize }

// At returns the element at row r, column c of a materialized block.
func (b *Block) At(r, c int64) float64 { return b.Data[r*b.Cols+c] }

// Set assigns the element at row r, column c of a materialized block.
func (b *Block) Set(r, c int64, v float64) { b.Data[r*b.Cols+c] = v }

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{ID: b.ID, Rows: b.Rows, Cols: b.Cols}
	if b.Data != nil {
		nb.Data = make([]float64, len(b.Data))
		copy(nb.Data, b.Data)
	}
	return nb
}

// Blocks enumerates the partition's block IDs in row-major order — the
// task generation order of the paper's FIFO scheduling policy.
func (p Partition) Blocks() []BlockID {
	ids := make([]BlockID, 0, p.NumBlocks())
	for r := int64(0); r < p.GridRows; r++ {
		for c := int64(0); c < p.GridCols; c++ {
			ids = append(ids, BlockID{Row: r, Col: c})
		}
	}
	return ids
}

// Materialize creates and fills all blocks of the partition using gen.
// Intended for example/test scale; it refuses datasets over the given
// budget to avoid accidentally allocating a paper-scale matrix.
func (p Partition) Materialize(gen *Generator, maxBytes int64) ([]*Block, error) {
	if p.SizeBytes() > maxBytes {
		return nil, fmt.Errorf("dataset %q: %s exceeds materialization budget %s",
			p.Name, FormatBytes(p.SizeBytes()), FormatBytes(maxBytes))
	}
	out := make([]*Block, 0, p.NumBlocks())
	for _, id := range p.Blocks() {
		r, c, err := p.BlockShape(id.Row, id.Col)
		if err != nil {
			return nil, err
		}
		b := NewBlock(id, r, c)
		gen.Fill(b)
		out = append(out, b)
	}
	return out, nil
}
