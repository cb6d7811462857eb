package dag

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Interner hands out dense int32 datum IDs and maps them to names and
// back. IDs are assigned in declaration order starting at 0, so they index
// plain slices in every layer that tracks per-datum state.
//
// A datum gets its ID in one of two ways:
//
//   - Intern names one datum ("C3", "A[0,1]"); the name is stored.
//   - Range and Grid reserve a contiguous block of IDs for an indexed
//     family such as the partial sums ps[it,b] of one K-means iteration.
//     Only the family's prefix and leading indices are stored: a member's
//     name is rendered from its index when Name or Lookup asks for it, so
//     a million-member family costs a few words, not a million strings.
//
// Both kinds share one name space: Intern and Lookup resolve a family
// member's rendered name to its reserved ID.
type Interner struct {
	ids      map[string]int32 // named datums only
	names    []string         // named datums' names, ascending ID
	namedIDs []int32          // ID of names[i]
	ranges   []nameRange      // reserved families, ascending base
	prefixes map[string]*prefixUse
	n        int32 // next ID
}

// maxIndices bounds the indices of a family member's name.
const maxIndices = 8

// nameRange is one reserved family: IDs base..base+n-1 are named
// prefix[lead..., i], or prefix[lead..., i/cols, i%cols] when cols > 0.
type nameRange struct {
	base, n int32
	cols    int64
	prefix  string
	lead    []int64
}

// prefixUse records who uses a bracketed name prefix: the families
// reserved under it, and whether a named datum carries it too.
type prefixUse struct {
	ranges []int32 // indexes into Interner.ranges
	named  bool
}

// Range is a block of consecutive datum IDs reserved for one indexed
// family by Interner.Range or Interner.Grid.
type Range struct {
	base, n int32
	cols    int64 // Grid only
}

// ID returns the ID of member i of a family reserved by Range.
func (r Range) ID(i int64) int32 {
	if i < 0 || i >= int64(r.n) {
		panic(fmt.Sprintf("dag: range index %d out of [0,%d)", i, r.n))
	}
	return r.base + int32(i)
}

// At returns the ID of member (row, col) of a family reserved by Grid.
func (r Range) At(row, col int64) int32 {
	if col < 0 || col >= r.cols {
		panic(fmt.Sprintf("dag: grid column %d out of [0,%d)", col, r.cols))
	}
	return r.ID(row*r.cols + col)
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32), prefixes: make(map[string]*prefixUse)}
}

// Intern returns the ID of name, assigning the next dense ID on first use.
// A name that renders a reserved family member returns that member's ID.
func (in *Interner) Intern(name string) int32 {
	if id, ok := in.Lookup(name); ok {
		return id
	}
	id := in.next(1)
	in.ids[name] = id
	in.names = append(in.names, name)
	in.namedIDs = append(in.namedIDs, id)
	if open := strings.IndexByte(name, '['); open >= 0 {
		in.use(name[:open]).named = true
	}
	return id
}

// Range reserves n consecutive IDs for the family members
// prefix[lead..., i], i in [0, n), and returns them.
//
// Reserving a family whose members were already interned by name is a
// builder bug and panics: the name would then denote two datums.
func (in *Interner) Range(prefix string, n int64, lead ...int64) Range {
	return in.reserve(prefix, n, 0, lead)
}

// Grid reserves rows×cols consecutive IDs, in row-major order, for the
// family members prefix[r, c].
func (in *Interner) Grid(prefix string, rows, cols int64) Range {
	return in.reserve(prefix, rows*cols, cols, nil)
}

func (in *Interner) reserve(prefix string, n, cols int64, lead []int64) Range {
	if strings.ContainsAny(prefix, "[]") || len(lead) > maxIndices-2 {
		panic(fmt.Sprintf("dag: bad family %s%v: bracket in prefix or too many indices", prefix, lead))
	}
	r := nameRange{base: in.next(n), n: int32(n), cols: cols, prefix: prefix}
	if len(lead) > 0 {
		r.lead = append([]int64(nil), lead...)
	}
	in.ranges = append(in.ranges, r)
	u := in.use(prefix)
	u.ranges = append(u.ranges, int32(len(in.ranges)-1))
	if u.named {
		for j, name := range in.names {
			if id, ok := in.lookupRange(name); ok && id >= r.base {
				panic(fmt.Sprintf("dag: family %s reserves %q, already datum %d", prefix, name, in.namedIDs[j]))
			}
		}
	}
	return Range{base: r.base, n: r.n, cols: cols}
}

// next assigns n fresh IDs and returns the first.
func (in *Interner) next(n int64) int32 {
	if n < 0 || int64(in.n)+n > 1<<31-1 {
		panic(fmt.Sprintf("dag: cannot reserve %d more datum IDs after %d", n, in.n))
	}
	id := in.n
	in.n += int32(n)
	return id
}

func (in *Interner) use(prefix string) *prefixUse {
	u := in.prefixes[prefix]
	if u == nil {
		u = &prefixUse{}
		in.prefixes[prefix] = u
	}
	return u
}

// Lookup returns the ID of name if it has been interned or reserved.
func (in *Interner) Lookup(name string) (int32, bool) {
	if id, ok := in.ids[name]; ok {
		return id, true
	}
	return in.lookupRange(name)
}

// lookupRange parses name as prefix[i,j,...] and finds the reserved
// family member it renders, if any.
func (in *Interner) lookupRange(name string) (int32, bool) {
	open := strings.IndexByte(name, '[')
	if open < 0 || !strings.HasSuffix(name, "]") {
		return 0, false
	}
	u := in.prefixes[name[:open]]
	if u == nil || len(u.ranges) == 0 {
		return 0, false
	}
	var buf [maxIndices]int64
	idx := buf[:0]
	for s := name[open+1 : len(name)-1]; ; {
		f, rest, more := strings.Cut(s, ",")
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil || len(idx) == len(buf) {
			return 0, false
		}
		idx = append(idx, v)
		if !more {
			break
		}
		s = rest
	}
	var scratch [64]byte
	for _, ri := range u.ranges {
		r := &in.ranges[ri]
		tail := idx
		if len(tail) < len(r.lead) {
			continue
		}
		if !slices.Equal(tail[:len(r.lead)], r.lead) {
			continue
		}
		tail = tail[len(r.lead):]
		var i int64
		switch {
		case r.cols == 0 && len(tail) == 1:
			i = tail[0]
		case r.cols > 0 && len(tail) == 2 && tail[1] >= 0 && tail[1] < r.cols:
			i = tail[0]*r.cols + tail[1]
		default:
			continue
		}
		if i < 0 || i >= int64(r.n) {
			continue
		}
		// Reject non-canonical spellings such as X[01]: the member's
		// name is its rendering, nothing else.
		if string(r.appendName(scratch[:0], i)) == name {
			return r.base + int32(i), true
		}
	}
	return 0, false
}

// Name returns the name of datum id, rendering it if id belongs to a
// reserved family.
func (in *Interner) Name(id int32) string {
	k := sort.Search(len(in.ranges), func(k int) bool {
		return in.ranges[k].base+in.ranges[k].n > id
	})
	if k < len(in.ranges) && in.ranges[k].base <= id {
		r := &in.ranges[k]
		return string(r.appendName(nil, int64(id-r.base)))
	}
	j := sort.Search(len(in.namedIDs), func(j int) bool { return in.namedIDs[j] >= id })
	if j == len(in.namedIDs) || in.namedIDs[j] != id {
		panic(fmt.Sprintf("dag: datum ID %d not assigned", id))
	}
	return in.names[j]
}

// Len returns the number of assigned IDs (== 1 + the largest ID).
func (in *Interner) Len() int { return int(in.n) }

// appendName appends the name of member i of the family.
func (r *nameRange) appendName(b []byte, i int64) []byte {
	var buf [maxIndices]int64
	idx := append(buf[:0], r.lead...)
	if r.cols > 0 {
		idx = append(idx, i/r.cols, i%r.cols)
	} else {
		idx = append(idx, i)
	}
	return appendIndexed(b, r.prefix, idx...)
}

// IndexedName returns the name of an indexed datum, prefix[i,j,...]: the
// spelling Range and Grid render their members with, for builders that
// name such datums themselves.
func IndexedName(prefix string, idx ...int64) string {
	return string(appendIndexed(nil, prefix, idx...))
}

func appendIndexed(b []byte, prefix string, idx ...int64) []byte {
	b = append(b, prefix...)
	b = append(b, '[')
	for k, v := range idx {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}
