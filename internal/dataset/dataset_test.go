package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPresetSizes(t *testing.T) {
	cases := []struct {
		d    Dataset
		gb   float64
		elem int64
	}{
		{MatmulSmall, 8, 1 << 30},
		{MatmulLarge, 32, 4 << 30},
		{MatmulSkew, 2, 256 << 20},
		{KMeansSmall, 10, 1_250_000_000},
		{KMeansLarge, 100, 12_500_000_000},
		{KMeansSkew, 1, 125_000_000},
	}
	for _, c := range cases {
		if c.d.Elements() != c.elem {
			t.Errorf("%s: elements = %d, want %d", c.d.Name, c.d.Elements(), c.elem)
		}
		gotGB := float64(c.d.SizeBytes()) / 1e9
		gotGiB := float64(c.d.SizeBytes()) / (1 << 30)
		// Paper sizes are approximate decimal/binary GB; accept either
		// interpretation within 8%.
		if math.Abs(gotGB-c.gb)/c.gb > 0.08 && math.Abs(gotGiB-c.gb)/c.gb > 0.08 {
			t.Errorf("%s: size = %.2f GB / %.2f GiB, want ≈%v", c.d.Name, gotGB, gotGiB, c.gb)
		}
	}
}

func TestByGridEquationOne(t *testing.T) {
	// Paper Eq. (1): i = k·m, j = l·n for exact partitions.
	p, err := ByGrid(MatmulSmall, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.BlockRows != 8192 || p.BlockCols != 8192 {
		t.Fatalf("block = %dx%d, want 8192x8192", p.BlockRows, p.BlockCols)
	}
	if got := p.BlockBytes(); got != 512<<20 {
		t.Fatalf("block bytes = %d, want 512 MB", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestByGridRagged(t *testing.T) {
	// 12.5M rows over 256 grid rows is not exact: 48829-row blocks with a
	// smaller last block.
	p, err := ByGrid(KMeansSmall, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, id := range p.Blocks() {
		r, c, err := p.BlockShape(id.Row, id.Col)
		if err != nil {
			t.Fatal(err)
		}
		if r <= 0 || c <= 0 {
			t.Fatalf("block %v has shape %dx%d", id, r, c)
		}
		total += r * c
	}
	if total != KMeansSmall.Elements() {
		t.Fatalf("blocks cover %d elements, want %d", total, KMeansSmall.Elements())
	}
	// Paper labels this configuration "39 MB" blocks.
	mb := float64(p.BlockBytes()) / (1 << 20)
	if mb < 36 || mb > 40 {
		t.Fatalf("256x1 block size = %.1f MB, want ≈39 MB", mb)
	}
}

func TestByBlockRoundTrip(t *testing.T) {
	// Eq. (2): partitioning by the block dims derived from a grid
	// partition must reproduce the grid.
	f := func(rowsRaw, colsRaw, kRaw, lRaw uint16) bool {
		rows := int64(rowsRaw)%5000 + 1
		cols := int64(colsRaw)%5000 + 1
		k := int64(kRaw)%32 + 1
		l := int64(lRaw)%32 + 1
		if k > rows || l > cols {
			return true // skip invalid combos
		}
		d := Dataset{Name: "t", Rows: rows, Cols: cols}
		p1, err := ByGrid(d, k, l)
		if err != nil {
			return false
		}
		if p1.Validate() != nil {
			return false
		}
		p2, err := ByBlock(d, p1.BlockRows, p1.BlockCols)
		if err != nil {
			return false
		}
		return p2.GridRows == p1.GridRows && p2.GridCols == p1.GridCols
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksCoverDataset(t *testing.T) {
	// Property: for any valid partition, blocks tile the dataset exactly.
	f := func(rowsRaw, colsRaw, mRaw, nRaw uint16) bool {
		rows := int64(rowsRaw)%3000 + 1
		cols := int64(colsRaw)%3000 + 1
		m := int64(mRaw)%300 + 1
		n := int64(nRaw)%300 + 1
		if m > rows || n > cols {
			return true
		}
		d := Dataset{Name: "t", Rows: rows, Cols: cols}
		p, err := ByBlock(d, m, n)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		var total int64
		for _, id := range p.Blocks() {
			r, c, err := p.BlockShape(id.Row, id.Col)
			if err != nil || r <= 0 || c <= 0 || r > m || c > n {
				return false
			}
			total += r * c
		}
		return total == d.Elements()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionErrors(t *testing.T) {
	d := Dataset{Name: "t", Rows: 10, Cols: 10}
	if _, err := ByGrid(d, 0, 1); err == nil {
		t.Error("zero grid accepted")
	}
	if _, err := ByGrid(d, 11, 1); err == nil {
		t.Error("grid larger than dataset accepted")
	}
	if _, err := ByBlock(d, 0, 5); err == nil {
		t.Error("zero block accepted")
	}
	if _, err := ByBlock(d, 20, 5); err == nil {
		t.Error("block larger than dataset accepted")
	}
	if _, err := ByGrid(Dataset{Name: "bad", Rows: 0, Cols: 5}, 1, 1); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestGeneratorReproducible(t *testing.T) {
	g1 := NewGenerator(42)
	g2 := NewGenerator(42)
	b1 := NewBlock(BlockID{1, 2}, 10, 10)
	b2 := NewBlock(BlockID{1, 2}, 10, 10)
	g1.Fill(b1)
	g2.Fill(b2)
	for i := range b1.Data {
		if b1.Data[i] != b2.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	g3 := NewGenerator(43)
	b3 := NewBlock(BlockID{1, 2}, 10, 10)
	g3.Fill(b3)
	same := true
	for i := range b1.Data {
		if b1.Data[i] != b3.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGeneratorBlockIndependence(t *testing.T) {
	// A block's content must not depend on materialization order.
	g := NewGenerator(7)
	a := NewBlock(BlockID{0, 0}, 5, 5)
	b := NewBlock(BlockID{0, 1}, 5, 5)
	g.Fill(a)
	g.Fill(b)

	g2 := NewGenerator(7)
	b2 := NewBlock(BlockID{0, 1}, 5, 5)
	g2.Fill(b2) // filled first this time
	for i := range b.Data {
		if b.Data[i] != b2.Data[i] {
			t.Fatal("block content depends on fill order")
		}
	}
}

func TestSkewedGenerator(t *testing.T) {
	g := NewSkewedGenerator(42)
	b := NewBlock(BlockID{0, 0}, 200, 200)
	g.Fill(b)
	// ~50% of values collapse into 8 bands of width 0.01; a histogram of
	// 100 bins must show strong concentration vs uniform.
	bins := make([]int, 100)
	for _, v := range b.Data {
		idx := int(v * 100)
		if idx < 0 {
			idx = 0
		}
		if idx > 99 {
			idx = 99
		}
		bins[idx]++
	}
	max := 0
	for _, c := range bins {
		if c > max {
			max = c
		}
	}
	expected := len(b.Data) / 100
	if max < 3*expected {
		t.Fatalf("skewed data not concentrated: max bin %d vs uniform %d", max, expected)
	}
	for _, v := range b.Data {
		if v < -0.02 || v > 1.02 {
			t.Fatalf("skewed value %v outside domain", v)
		}
	}
}

func TestFillBlobs(t *testing.T) {
	g := NewGenerator(1)
	a := NewBlock(BlockID{0, 0}, 50, 4)
	b := NewBlock(BlockID{1, 0}, 50, 4)
	g.FillBlobs(a, 3, 0.1)
	g.FillBlobs(b, 3, 0.1)
	// Different blocks get different rows but share blob centers: the
	// per-column value ranges should overlap substantially.
	for j := int64(0); j < 4; j++ {
		minA, maxA := math.Inf(1), math.Inf(-1)
		for r := int64(0); r < a.Rows; r++ {
			v := a.At(r, j)
			minA, maxA = math.Min(minA, v), math.Max(maxA, v)
		}
		if maxA-minA < 0.1 {
			t.Fatalf("blobs column %d has no spread", j)
		}
	}
}

func TestBlockHelpers(t *testing.T) {
	b := NewBlock(BlockID{0, 0}, 3, 4)
	if !b.Materialized() {
		t.Fatal("NewBlock not materialized")
	}
	if b.Bytes() != 3*4*8 {
		t.Fatalf("Bytes = %d", b.Bytes())
	}
	b.Set(2, 3, 7.5)
	if b.At(2, 3) != 7.5 {
		t.Fatal("At/Set roundtrip failed")
	}
	c := b.Clone()
	c.Set(2, 3, 1.0)
	if b.At(2, 3) != 7.5 {
		t.Fatal("Clone not deep")
	}
	lz := &Block{ID: BlockID{Row: 1, Col: 1}, Rows: 10, Cols: 10}
	if lz.Materialized() {
		t.Fatal("lazy block claims materialized")
	}
}

func TestMaterializeBudget(t *testing.T) {
	p, err := ByGrid(Dataset{Name: "t", Rows: 1000, Cols: 1000}, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Materialize(NewGenerator(1), 1000); err == nil {
		t.Fatal("materialization over budget accepted")
	}
	blocks, err := p.Materialize(NewGenerator(1), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 16 {
		t.Fatalf("got %d blocks, want 16", len(blocks))
	}
	var total int64
	for _, b := range blocks {
		if !b.Materialized() {
			t.Fatal("block not materialized")
		}
		total += b.Rows * b.Cols
	}
	if total != 1000*1000 {
		t.Fatalf("materialized %d elements, want 1e6", total)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:       "512B",
		2 << 10:   "2KB",
		8 << 30:   "8GB", // binary-clean: the paper's Matmul labels
		512 << 20: "512MB",
		// Decimal values: the paper's K-means labels (10 GB / 256 tasks
		// = 39.06 decimal MB → "39MB"; /32 = 312.5 → "313MB").
		39_062_500:     "39MB",
		312_500_000:    "313MB",
		10_000_000_000: "10GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}
