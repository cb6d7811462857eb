package resultcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	if _, ok := s.Get("k1"); ok {
		t.Fatal("hit on empty store")
	}
	s.Put("k1", []byte("payload-1"))
	got, ok := s.Get("k1")
	if !ok || string(got) != "payload-1" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Overwrite replaces, does not duplicate.
	s.Put("k1", []byte("payload-2"))
	got, _ = s.Get("k1")
	if string(got) != "payload-2" {
		t.Fatalf("after overwrite Get = %q", got)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 1 || st.Puts != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process (new Store over the same dir) serves the result.
	s2 := openT(t, dir, 0)
	got, ok = s2.Get("k1")
	if !ok || string(got) != "payload-2" {
		t.Fatalf("after reopen Get = %q, %v", got, ok)
	}
}

// blobPaths returns the on-disk blob files.
func blobPaths(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(dir, blobDir))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		out = append(out, filepath.Join(dir, blobDir, de.Name()))
	}
	return out
}

func TestStoreCorruptionRecovery(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"bit-flip":  func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"bad-magic": func(b []byte) []byte { b[0] = 'X'; return b },
		"schema-drift": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], SchemaVersion+1)
			return b
		},
		"header-only": func(b []byte) []byte { return b[:blobHeaderSize-8] },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, 0)
			s.Put("k", []byte("precious"))
			paths := blobPaths(t, dir)
			if len(paths) != 1 {
				t.Fatalf("%d blobs, want 1", len(paths))
			}
			raw, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[0], corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("k"); ok {
				t.Fatalf("corrupted blob served as a hit: %q", got)
			}
			st := s.Stats()
			if st.CorruptDropped != 1 {
				t.Fatalf("CorruptDropped = %d, want 1", st.CorruptDropped)
			}
			if remaining := blobPaths(t, dir); len(remaining) != 0 {
				t.Fatalf("corrupt blob not removed: %v", remaining)
			}
			// The store heals: a re-Put works and is served again.
			s.Put("k", []byte("recomputed"))
			if got, ok := s.Get("k"); !ok || string(got) != "recomputed" {
				t.Fatalf("after heal Get = %q, %v", got, ok)
			}
		})
	}
}

func TestStoreSchemaInvalidation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	s.Put("k", []byte("old-schema"))
	s.Close()
	// Rewrite the marker claiming an older schema.
	marker := filepath.Join(dir, schemaFile)
	old, err := os.ReadFile(marker)
	if err != nil {
		t.Fatal(err)
	}
	mutated := bytes.Replace(old,
		[]byte(fmt.Sprintf("%d", SchemaVersion)), []byte("0"), 1)
	if bytes.Equal(mutated, old) {
		t.Fatal("test could not mutate the schema marker")
	}
	if err := os.WriteFile(marker, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, 0)
	if _, ok := s2.Get("k"); ok {
		t.Fatal("stale-schema entry served as a hit")
	}
	if n := len(blobPaths(t, dir)); n != 0 {
		t.Fatalf("%d blobs survived schema invalidation", n)
	}
}

func TestStoreEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	// Each payload is 8 bytes; bound at 3 entries' worth.
	s := openT(t, dir, 24)
	pay := func(i int) []byte { return []byte(fmt.Sprintf("payld-%02d", i)) }
	s.Put("a", pay(0))
	s.Put("b", pay(1))
	s.Put("c", pay(2))
	// Touch a: it becomes most-recently-used, so the next insert must
	// evict b (the least recently used), not a.
	if _, ok := s.Get("a"); !ok {
		t.Fatal("miss on a")
	}
	s.Put("d", pay(3))
	if _, ok := s.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s was evicted; LRU order wrong", k)
		}
	}
	if ev := s.Stats().Evictions; ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
	// An oversized single entry is admitted (never evicts itself).
	s.Put("huge", make([]byte, 100))
	if _, ok := s.Get("huge"); !ok {
		t.Fatal("oversized entry not admitted")
	}
}

func TestStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", i%10)
				if v, ok := s.Get(key); ok {
					// Every reader of key i%10 must observe a value some
					// writer stored under it.
					if len(v) == 0 || v[0] != 'v' {
						t.Errorf("garbled read %q", v)
						return
					}
				}
				s.Put(key, []byte(fmt.Sprintf("v-%d-%d", w, i)))
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir, 0)
	if s2.Stats().Entries != 10 {
		t.Fatalf("Entries = %d, want 10", s2.Stats().Entries)
	}
}

// blobSizes returns the payload bytes the blob files on disk hold.
func blobSizes(t *testing.T, dir string) (n int, total int64) {
	t.Helper()
	for _, p := range blobPaths(t, dir) {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n++
		total += info.Size() - blobHeaderSize
	}
	return n, total
}

func TestStoreReopenSizesFromBlobs(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	for i := 0; i < 6; i++ {
		s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{'x'}, 10*i+1))
	}
	s.Put("k2", []byte("overwritten"))
	before := s.Stats()
	s.Close()

	// An unbounded store stats its blobs when Stats first needs their
	// sizes, a Get before it or not, and counts each once.
	s2 := openT(t, dir, 0)
	if got, ok := s2.Get("k2"); !ok || string(got) != "overwritten" {
		t.Fatalf("after reopen Get(k2) = %q, %v", got, ok)
	}
	n, total := blobSizes(t, dir)
	for i := 0; i < 2; i++ {
		st := s2.Stats()
		if st.Entries != n || st.Bytes != total {
			t.Fatalf("after reopen Entries=%d Bytes=%d, blobs hold %d and %d", st.Entries, st.Bytes, n, total)
		}
		if st.Entries != before.Entries || st.Bytes != before.Bytes {
			t.Fatalf("after reopen Entries=%d Bytes=%d, before close %d and %d",
				st.Entries, st.Bytes, before.Entries, before.Bytes)
		}
		s2.Get("k3")
	}
	// A bounded store stats its blobs at Open.
	if st := openT(t, dir, 1<<20).Stats(); st.Entries != n || st.Bytes != total {
		t.Fatalf("bounded reopen Entries=%d Bytes=%d, blobs hold %d and %d", st.Entries, st.Bytes, n, total)
	}
}

func TestStoreOpenRemovesStrays(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	s.Put("k", []byte("kept"))
	s.Close()
	blobs := filepath.Join(dir, blobDir)
	stray := filepath.Join(blobs, blobName("crashed")+".tmp123456")
	short := filepath.Join(blobs, blobName("short"))
	if err := os.WriteFile(stray, make([]byte, 200), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(short, make([]byte, 10), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, 0)
	st := s2.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("kept")) {
		t.Fatalf("Entries=%d Bytes=%d, want 1 and %d", st.Entries, st.Bytes, len("kept"))
	}
	if st.CorruptDropped != 1 {
		t.Fatalf("CorruptDropped = %d, want 1 (the short file)", st.CorruptDropped)
	}
	for _, p := range []string{stray, short} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("%s survived Open (err %v)", filepath.Base(p), err)
		}
	}
	if got, ok := s2.Get("k"); !ok || string(got) != "kept" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestStoreOpenAdoptsCorruptBlobLazily(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	s.Put("k", []byte("precious"))
	s.Close()
	paths := blobPaths(t, dir)
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, 0)
	if st := s2.Stats(); st.Entries != 1 || st.CorruptDropped != 0 {
		t.Fatalf("at Open Entries=%d CorruptDropped=%d, want the blob adopted unchecked", st.Entries, st.CorruptDropped)
	}
	if got, ok := s2.Get("k"); ok {
		t.Fatalf("corrupted blob served as a hit: %q", got)
	}
	st := s2.Stats()
	if st.CorruptDropped != 1 || st.Entries != 0 || st.Bytes != 0 || st.Misses != 1 {
		t.Fatalf("after Get stats = %+v, want 1 corrupt drop, 1 miss, empty store", st)
	}
	if remaining := blobPaths(t, dir); len(remaining) != 0 {
		t.Fatalf("corrupt blob not removed: %v", remaining)
	}
}

func TestStoreReopenEvictsInWriteOrder(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		s.Put(k, []byte("8 bytes!"))
	}
	s.Close()
	// Kernel file timestamps are coarse, so back-to-back writes can tie:
	// give each blob its own mtime. Write order runs against name order,
	// so an Open that ignored mtimes would evict in the wrong order.
	byName := append([]string(nil), keys...)
	sort.Slice(byName, func(i, j int) bool { return blobName(byName[i]) > blobName(byName[j]) })
	for i, k := range byName {
		at := time.Unix(int64(1000+i), 0)
		if err := os.Chtimes(filepath.Join(dir, blobDir, blobName(k)), at, at); err != nil {
			t.Fatal(err)
		}
	}

	// Room for four entries: every further Put evicts the oldest write.
	s2 := openT(t, dir, 32)
	for i, oldest := range byName[:3] {
		s2.Put(fmt.Sprintf("new%d", i), []byte("8 bytes!"))
		if _, err := os.Stat(filepath.Join(dir, blobDir, blobName(oldest))); !os.IsNotExist(err) {
			t.Fatalf("Put %d did not evict %q, the oldest write (err %v)", i, oldest, err)
		}
		for _, younger := range byName[i+1:] {
			if _, err := os.Stat(filepath.Join(dir, blobDir, blobName(younger))); err != nil {
				t.Fatalf("Put %d evicted %q before older writes: %v", i, younger, err)
			}
		}
	}
	if ev := s2.Stats().Evictions; ev != 3 {
		t.Fatalf("Evictions = %d, want 3", ev)
	}
}

func TestStoreReopenBreaksMtimeTiesByName(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		s.Put(k, []byte("8 bytes!"))
	}
	s.Close()
	at := time.Unix(1000, 0)
	for _, k := range keys {
		if err := os.Chtimes(filepath.Join(dir, blobDir, blobName(k)), at, at); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return blobName(keys[i]) < blobName(keys[j]) })

	s2 := openT(t, dir, 24)
	s2.Put("d", []byte("8 bytes!"))
	for i, k := range keys {
		_, err := os.Stat(filepath.Join(dir, blobDir, blobName(k)))
		if evicted := os.IsNotExist(err); evicted != (i == 0) {
			t.Fatalf("%q (name rank %d) evicted = %v; equal mtimes must evict the first name", k, i, evicted)
		}
	}
}
