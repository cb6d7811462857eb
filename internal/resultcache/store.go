package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Stats are the store's cumulative counters. Hits/Misses count Get
// outcomes; CorruptDropped counts blobs discarded for failing validation
// (bad magic, wrong schema, truncation, checksum mismatch) — each such
// drop also counts as a miss, because the caller re-simulates.
type Stats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Puts           uint64 `json:"puts"`
	Evictions      uint64 `json:"evictions"`
	CorruptDropped uint64 `json:"corrupt_dropped"`
	Entries        int    `json:"entries"`
	Bytes          int64  `json:"bytes"`
}

// Store is a persistent content-addressed result cache: one blob file per
// key under dir/blobs plus a JSON index tracking sizes and LRU recency.
// All writes are atomic (temp file + rename), so a crash mid-write leaves
// either the old state or the new, never a torn blob; a torn or tampered
// blob that does land on disk is detected by checksum on read and treated
// as a miss. A Store is safe for concurrent use within one process;
// concurrent processes sharing a directory are safe for blobs (atomic
// renames) but may lose index recency updates, which only weakens LRU
// ordering, never correctness.
type Store struct {
	dir string
	// maxBytes bounds the total payload bytes; 0 means unbounded.
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry // blob name (hex) → entry
	clock   uint64            // logical LRU clock
	stats   Stats
	bytes   int64
}

type entry struct {
	Size    int64  `json:"size"`
	LastUse uint64 `json:"last_use"`
}

// index is the on-disk JSON form.
type index struct {
	Schema  int               `json:"schema"`
	Clock   uint64            `json:"clock"`
	Entries map[string]*entry `json:"entries"`
}

const (
	blobDir   = "blobs"
	indexFile = "index.json"
	blobMagic = "WFC1"
	// blobHeaderSize is magic(4) + schema(4) + payload length(8) +
	// payload SHA-256(32).
	blobHeaderSize = 4 + 4 + 8 + sha256.Size
)

// Open opens (creating if needed) a store rooted at dir. maxBytes bounds
// the cached payload volume (0 = unbounded); when an insert pushes past
// the bound, least-recently-used entries are evicted until it fits. An
// index recorded by an older schema version invalidates the whole cache:
// every blob is removed rather than served as stale physics.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, blobDir), 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: map[string]*entry{}}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// loadIndex reads the index, falling back to a blob-directory scan when
// the index is missing or unreadable (the blobs are the ground truth; the
// index only accelerates startup and remembers recency).
func (s *Store) loadIndex() error {
	data, err := os.ReadFile(filepath.Join(s.dir, indexFile))
	if err == nil {
		var idx index
		if jsonErr := json.Unmarshal(data, &idx); jsonErr == nil {
			if idx.Schema != SchemaVersion {
				return s.invalidateAll()
			}
			s.clock = idx.Clock
			for name, e := range idx.Entries {
				if e != nil {
					s.entries[name] = e
					s.bytes += e.Size
				}
			}
			s.refreshGauges()
			return nil
		}
		// Corrupt index: rebuild from the blobs.
	}
	return s.scanBlobs()
}

// scanBlobs rebuilds the index from the blob directory: every valid blob
// is adopted (recency unknown, so deterministic name order seeds the LRU
// clock); invalid blobs are dropped.
func (s *Store) scanBlobs() error {
	names, err := os.ReadDir(filepath.Join(s.dir, blobDir))
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	sorted := make([]string, 0, len(names))
	for _, de := range names {
		if !de.IsDir() {
			sorted = append(sorted, de.Name())
		}
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		payload, ok := s.readBlob(name)
		if !ok {
			continue
		}
		s.clock++
		s.entries[name] = &entry{Size: int64(len(payload)), LastUse: s.clock}
		s.bytes += int64(len(payload))
	}
	s.refreshGauges()
	return s.writeIndex()
}

// invalidateAll removes every blob — the schema changed, so every cached
// result describes a simulator that no longer exists.
func (s *Store) invalidateAll() error {
	names, err := os.ReadDir(filepath.Join(s.dir, blobDir))
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	for _, de := range names {
		os.Remove(filepath.Join(s.dir, blobDir, de.Name()))
	}
	s.entries = map[string]*entry{}
	s.bytes, s.clock = 0, 0
	s.refreshGauges()
	return s.writeIndex()
}

// blobName maps an arbitrary cache key string to its content address:
// the SHA-256 of (SchemaVersion, key). Canonical keys produced by KeyOf
// are already hashes; hashing again is cheap and makes every key — ad hoc
// or canonical — uniform, fixed-length, and filesystem-safe.
func blobName(key string) string {
	h := sha256.New()
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], SchemaVersion)
	h.Write(v[:])
	h.Write([]byte(key))
	var k Key
	h.Sum(k[:0])
	return k.Hex()
}

// Get returns the payload stored under key, or (nil, false) on a miss. A
// blob that fails validation (truncated write that somehow bypassed the
// atomic rename, bit rot, schema drift) is deleted and reported as a
// miss.
func (s *Store) Get(key string) ([]byte, bool) {
	name := blobName(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	payload, valid := s.readBlob(name)
	if !valid {
		s.dropLocked(name, e)
		s.stats.Misses++
		s.refreshGauges()
		return nil, false
	}
	s.clock++
	e.LastUse = s.clock
	s.stats.Hits++
	return payload, true
}

// Put stores payload under key, atomically, evicting LRU entries if the
// size bound is exceeded. Errors are deliberately swallowed after
// counting: a cache that cannot write degrades to a smaller cache, not a
// failed experiment.
func (s *Store) Put(key string, payload []byte) {
	name := blobName(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeBlob(name, payload); err != nil {
		return
	}
	if old, ok := s.entries[name]; ok {
		s.bytes -= old.Size
	}
	s.clock++
	s.entries[name] = &entry{Size: int64(len(payload)), LastUse: s.clock}
	s.bytes += int64(len(payload))
	s.stats.Puts++
	s.evictLocked(name)
	s.refreshGauges()
	s.writeIndex()
}

// evictLocked removes least-recently-used entries until the store fits
// its bound. The entry just inserted (keep) survives even if it alone
// exceeds the bound: evicting the working set to fit an oversized result
// would thrash.
func (s *Store) evictLocked(keep string) {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes > s.maxBytes && len(s.entries) > 1 {
		oldest, oldestUse := "", uint64(0)
		for name, e := range s.entries {
			if name == keep {
				continue
			}
			if oldest == "" || e.LastUse < oldestUse {
				oldest, oldestUse = name, e.LastUse
			}
		}
		if oldest == "" {
			return
		}
		s.dropLocked(oldest, s.entries[oldest])
		s.stats.Evictions++
	}
}

func (s *Store) dropLocked(name string, e *entry) {
	os.Remove(filepath.Join(s.dir, blobDir, name))
	delete(s.entries, name)
	s.bytes -= e.Size
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Store) refreshGauges() {
	s.stats.Entries = len(s.entries)
	s.stats.Bytes = s.bytes
}

// Close flushes the index (recency updates from Gets are only persisted
// here and on Puts). The store must not be used after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeIndex()
}

// writeIndex atomically persists the index. Callers hold s.mu.
func (s *Store) writeIndex() error {
	idx := index{Schema: SchemaVersion, Clock: s.clock, Entries: s.entries}
	data, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	return atomicWrite(filepath.Join(s.dir, indexFile), data)
}

// writeBlob atomically writes header+payload. Callers hold s.mu.
func (s *Store) writeBlob(name string, payload []byte) error {
	buf := make([]byte, blobHeaderSize+len(payload))
	copy(buf, blobMagic)
	binary.LittleEndian.PutUint32(buf[4:], SchemaVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[16:], sum[:])
	copy(buf[blobHeaderSize:], payload)
	return atomicWrite(filepath.Join(s.dir, blobDir, name), buf)
}

// readBlob reads and validates one blob, returning (payload, ok).
// Callers hold s.mu (validation failures bump CorruptDropped and remove
// the file).
func (s *Store) readBlob(name string) ([]byte, bool) {
	path := filepath.Join(s.dir, blobDir, name)
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if len(buf) < blobHeaderSize || string(buf[:4]) != blobMagic {
		s.corruptLocked(path)
		return nil, false
	}
	if binary.LittleEndian.Uint32(buf[4:]) != SchemaVersion {
		s.corruptLocked(path)
		return nil, false
	}
	n := binary.LittleEndian.Uint64(buf[8:])
	payload := buf[blobHeaderSize:]
	if uint64(len(payload)) != n {
		s.corruptLocked(path)
		return nil, false
	}
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(buf[16:16+sha256.Size]) {
		s.corruptLocked(path)
		return nil, false
	}
	return payload, true
}

func (s *Store) corruptLocked(path string) {
	s.stats.CorruptDropped++
	os.Remove(path)
}

// atomicWrite writes data to path via a temp file + rename, so readers
// never observe a partial file.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
