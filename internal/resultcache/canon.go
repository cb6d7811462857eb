// Package resultcache is the persistent, content-addressed result cache
// behind the experiment harness: deterministic simulation makes a trial's
// result a pure function of its configuration, so a canonical hash of
// (workload spec, simulation config, seed, schema version) addresses the
// result forever — across processes, machines, and struct refactors.
//
// The package has two halves. The canonical encoder (this file) turns an
// arbitrary configuration value into a stable byte serialization and a
// SHA-256 key: struct fields are emitted as sorted (name, value) pairs,
// so reordering fields in a Go source file cannot change a key, while
// renaming, adding, or removing a field — a semantic change — always
// does. The Store (store.go) persists encoded results on disk under those
// keys with atomic writes, corruption detection, schema-version
// invalidation, and size-bounded LRU eviction.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
)

// SchemaVersion tags every canonical key and every stored blob. Bump it
// when simulator semantics change in a way that invalidates previously
// cached results (cost-model recalibration, dispatch-order changes, new
// factors defaulting to non-neutral values): old entries then miss by
// construction instead of serving stale physics.
const SchemaVersion = 1

// Key is a canonical trial key: the SHA-256 of a canonical serialization.
type Key [sha256.Size]byte

// Hex returns the key's lowercase hex form — the on-disk blob name and
// the runner-level memo string.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// KeyOf canonically serializes (SchemaVersion, kind, parts...) and hashes
// it. kind namespaces key families ("cell", "ext1linreg", ...) so two
// different trial shapes can never collide even if their configs encode
// identically.
func KeyOf(kind string, parts ...any) Key {
	h := sha256.New()
	b := make([]byte, 0, 256)
	b = appendCanonical(b, reflect.ValueOf(SchemaVersion))
	b = append(b, canonSep)
	b = append(b, kind...)
	for _, p := range parts {
		b = append(b, canonSep)
		b = AppendCanonical(b, p)
	}
	h.Write(b)
	var k Key
	h.Sum(k[:0])
	return k
}

// Canonical returns the canonical serialization of v (without the schema
// prefix KeyOf adds). Exposed for golden tests and debugging.
func Canonical(v any) []byte { return AppendCanonical(nil, v) }

// AppendCanonical appends v's canonical serialization to b.
//
// The encoding is deterministic and unambiguous by construction:
//
//   - structs emit "{name=value;...}" with fields sorted by name, so the
//     declaration order of fields never matters; unexported fields are
//     skipped (they are invisible configuration by definition).
//   - pointers and interfaces emit "nil" or dereference; a nil pointer
//     and a zero-valued pointee are therefore distinct.
//   - floats emit their exact IEEE-754 bits, so two configs differing by
//     one ULP hash differently and -0.0 differs from +0.0.
//   - slices/arrays emit "[v,v,...]"; strings are length-prefixed so a
//     crafted string cannot impersonate structural delimiters.
//   - maps emit entries sorted by canonical key encoding (no map in the
//     current config surface, but the encoder must not panic on one).
func AppendCanonical(b []byte, v any) []byte {
	if v == nil {
		return append(b, "nil"...)
	}
	return appendCanonical(b, reflect.ValueOf(v))
}

const canonSep = 0x1f // ASCII unit separator: never appears in Go idents

func appendCanonical(b []byte, rv reflect.Value) []byte {
	switch rv.Kind() {
	case reflect.Bool:
		if rv.Bool() {
			return append(b, "true"...)
		}
		return append(b, "false"...)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, rv.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(b, rv.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		// Exact bits, not a decimal rendering: no formatting round-trip
		// can alias two distinct values onto one key.
		b = append(b, 'f')
		return strconv.AppendUint(b, math.Float64bits(rv.Float()), 16)
	case reflect.Complex64, reflect.Complex128:
		c := rv.Complex()
		b = append(b, 'c')
		b = strconv.AppendUint(b, math.Float64bits(real(c)), 16)
		b = append(b, ',')
		return strconv.AppendUint(b, math.Float64bits(imag(c)), 16)
	case reflect.String:
		s := rv.String()
		b = strconv.AppendInt(b, int64(len(s)), 10)
		b = append(b, 's')
		return append(b, s...)
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return append(b, "nil"...)
		}
		b = append(b, '&')
		return appendCanonical(b, rv.Elem())
	case reflect.Slice:
		if rv.IsNil() {
			return append(b, "nil"...)
		}
		fallthrough
	case reflect.Array:
		b = append(b, '[')
		for i := 0; i < rv.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCanonical(b, rv.Index(i))
		}
		return append(b, ']')
	case reflect.Struct:
		t := rv.Type()
		type field struct {
			name string
			i    int
		}
		fields := make([]field, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fields = append(fields, field{f.Name, i})
		}
		if len(fields) == 0 && t.NumField() > 0 {
			// A struct whose configuration lives entirely in unexported
			// fields would encode as "{}" — every instance aliasing one
			// key. Refuse rather than silently collide.
			panic(fmt.Sprintf("resultcache: %s has no exported fields; its canonical encoding would be empty", t))
		}
		sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
		b = append(b, '{')
		for i, f := range fields {
			if i > 0 {
				b = append(b, ';')
			}
			b = append(b, f.name...)
			b = append(b, '=')
			b = appendCanonical(b, rv.Field(f.i))
		}
		return append(b, '}')
	case reflect.Map:
		if rv.IsNil() {
			return append(b, "nil"...)
		}
		type entry struct{ k, v []byte }
		entries := make([]entry, 0, rv.Len())
		iter := rv.MapRange()
		for iter.Next() {
			entries = append(entries, entry{
				k: appendCanonical(nil, iter.Key()),
				v: appendCanonical(nil, iter.Value()),
			})
		}
		sort.Slice(entries, func(i, j int) bool { return string(entries[i].k) < string(entries[j].k) })
		b = append(b, 'm', '{')
		for i, e := range entries {
			if i > 0 {
				b = append(b, ';')
			}
			b = append(b, e.k...)
			b = append(b, '=')
			b = append(b, e.v...)
		}
		return append(b, '}')
	default:
		// Channels, funcs, unsafe pointers: not configuration. Refusing
		// loudly beats hashing an address that differs per process.
		panic(fmt.Sprintf("resultcache: cannot canonicalize %s", rv.Kind()))
	}
}
