package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Stats are the store's cumulative counters. Hits/Misses count Get
// outcomes; CorruptDropped counts blobs discarded for failing validation
// (bad magic, wrong schema, truncation, checksum mismatch, or a file too
// short to hold a header) — a drop at Get also counts as a miss, because
// the caller re-simulates.
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
// key under dir/blobs and a one-line dir/schema marker. The blob
// directory is the only record: an entry's size is its file size less
// the header, and LRU recency starts from the files' modification times,
// which are write order (recency earned by Gets lives only as long as the
// process). Each blob is written to a unique temp file and renamed into
// place, so it is complete when Put returns and Close has nothing to
// flush. Blobs are not fsynced: one that a crash tears, like any blob
// corrupted on disk, fails its checksum on read and is treated as a miss.
// A Store is safe for concurrent use within one process. Processes
// sharing a directory are safe for blobs (atomic renames), but one
// opening the store removes the other's in-flight temp files, which only
// loses that Put.
type Store struct {
	dir string
	// maxBytes bounds the total payload bytes; 0 means unbounded.
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry // blob name (hex) → entry
	// clock is the LRU clock: statting a blob seeds it, and the entry's
	// lastUse, with the blob's modification time in nanoseconds.
	clock uint64
	stats Stats
	bytes int64 // payload bytes of the entries whose size is known
}

type entry struct {
	size    int64 // payload bytes; -1 until statted
	lastUse uint64
}

const (
	blobDir    = "blobs"
	schemaFile = "schema"
	blobMagic  = "WFC1"
	// blobHeaderSize is magic(4) + schema(4) + payload length(8) +
	// payload SHA-256(32).
	blobHeaderSize = 4 + 4 + 8 + sha256.Size
)

// Open opens (creating if needed) a store rooted at dir. maxBytes bounds
// the cached payload volume (0 = unbounded); when an insert pushes past
// the bound, least-recently-used entries are evicted until it fits. Open
// reads no blob and removes files that are not blobs (temp files left by
// a crash). A bounded store stats every blob for its size and write
// order; an unbounded one leaves sizes to Stats. A schema marker that is
// missing or names another SchemaVersion invalidates the whole cache:
// every blob is removed rather than served as stale physics.
func Open(dir string, maxBytes int64) (*Store, error) {
	blobs := filepath.Join(dir, blobDir)
	if err := os.MkdirAll(blobs, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	if err := checkSchema(dir); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	des, err := os.ReadDir(blobs)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: make(map[string]*entry, len(des))}
	for _, de := range des {
		if !isBlobName(de.Name()) {
			os.Remove(filepath.Join(blobs, de.Name()))
			continue
		}
		s.entries[de.Name()] = &entry{size: -1}
	}
	if maxBytes > 0 {
		s.statLocked()
	}
	return s, nil
}

// checkSchema keeps dir's blobs only if its schema marker names the
// current SchemaVersion. Otherwise — a new directory, or one written by
// another schema — it removes every blob and any legacy index, then
// writes the marker, the only file Open writes.
func checkSchema(dir string) error {
	want := strconv.Itoa(SchemaVersion) + "\n"
	if got, err := os.ReadFile(filepath.Join(dir, schemaFile)); err == nil && string(got) == want {
		return nil
	}
	blobs := filepath.Join(dir, blobDir)
	if err := os.RemoveAll(blobs); err != nil {
		return err
	}
	if err := os.Mkdir(blobs, 0o755); err != nil {
		return err
	}
	os.Remove(filepath.Join(dir, "index.json")) // kept by earlier versions
	return writeAtomic(dir, schemaFile, []byte(want))
}

// statLocked stats every blob whose size is unknown, for its size and,
// as recency, its modification time. A blob too short to hold a
// header is removed as corrupt. Callers hold s.mu, or own s as Open does.
func (s *Store) statLocked() {
	for name, e := range s.entries {
		if e.size >= 0 {
			continue
		}
		info, err := os.Lstat(filepath.Join(s.dir, blobDir, name))
		if err != nil || info.Size() < blobHeaderSize {
			if err == nil {
				s.stats.CorruptDropped++
			}
			s.dropLocked(name, e)
			continue
		}
		e.size, e.lastUse = info.Size()-blobHeaderSize, uint64(info.ModTime().UnixNano())
		s.bytes += e.size
		s.clock = max(s.clock, e.lastUse)
	}
}

// isBlobName reports whether name is a blob's name: 64 lowercase hex
// digits, as blobName produces.
func isBlobName(name string) bool {
	if len(name) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(name); i++ {
		if c := name[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
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
// blob that fails validation (bit rot, truncation, schema drift) is
// deleted and reported as a miss. The blob is read and validated outside
// the lock.
func (s *Store) Get(key string) ([]byte, bool) {
	name := blobName(key)
	s.mu.Lock()
	e, ok := s.entries[name]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()

	payload, err := s.readBlob(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// A Put or an eviction since the lookup may have replaced or
		// removed the blob; only the entry that was read is dropped.
		if s.entries[name] == e {
			if errors.Is(err, errCorrupt) {
				s.stats.CorruptDropped++
			}
			s.dropLocked(name, e)
		}
		s.stats.Misses++
		return nil, false
	}
	s.clock++
	e.lastUse = s.clock
	s.stats.Hits++
	return payload, true
}

// Put stores payload under key, atomically, evicting LRU entries if the
// size bound is exceeded. The blob is written outside the lock. Errors
// are deliberately swallowed: a cache that cannot write degrades to a
// smaller cache, not a failed experiment.
func (s *Store) Put(key string, payload []byte) {
	name := blobName(key)
	if err := s.writeBlob(name, payload); err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[name]; ok {
		s.bytes -= max(old.size, 0)
	}
	s.clock++
	s.entries[name] = &entry{size: int64(len(payload)), lastUse: s.clock}
	s.bytes += int64(len(payload))
	s.stats.Puts++
	s.evictLocked(name)
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
			// Ties arise only among mtimes; names break them.
			if oldest == "" || e.lastUse < oldestUse || (e.lastUse == oldestUse && name < oldest) {
				oldest, oldestUse = name, e.lastUse
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
	s.bytes -= max(e.size, 0)
}

// Stats returns a snapshot of the counters, after statting the blobs
// whose sizes are not yet known.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.statLocked()
	st := s.stats
	st.Entries, st.Bytes = len(s.entries), s.bytes
	return st
}

// Close has nothing to flush: every write is complete when Put returns.
// The store must not be used after Close.
func (s *Store) Close() error { return nil }

// writeBlob atomically writes header+payload.
func (s *Store) writeBlob(name string, payload []byte) error {
	buf := make([]byte, blobHeaderSize+len(payload))
	copy(buf, blobMagic)
	binary.LittleEndian.PutUint32(buf[4:], SchemaVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[16:], sum[:])
	copy(buf[blobHeaderSize:], payload)
	return writeAtomic(filepath.Join(s.dir, blobDir), name, buf)
}

// errCorrupt is readBlob's error for a blob that fails validation.
var errCorrupt = errors.New("resultcache: corrupt blob")

// readBlob reads and validates one blob.
func (s *Store) readBlob(name string) ([]byte, error) {
	buf, err := os.ReadFile(filepath.Join(s.dir, blobDir, name))
	if err != nil {
		return nil, err
	}
	if len(buf) < blobHeaderSize || string(buf[:4]) != blobMagic ||
		binary.LittleEndian.Uint32(buf[4:]) != SchemaVersion {
		return nil, errCorrupt
	}
	payload := buf[blobHeaderSize:]
	if uint64(len(payload)) != binary.LittleEndian.Uint64(buf[8:]) {
		return nil, errCorrupt
	}
	if sum := sha256.Sum256(payload); string(sum[:]) != string(buf[16:blobHeaderSize]) {
		return nil, errCorrupt
	}
	return payload, nil
}

// writeAtomic writes data to dir/name through a temp file of its own in
// dir and a rename, so readers never observe a partial file and
// concurrent writers of one name never share a temp file. The temp name
// is never a blob name, so Open removes it if a crash leaves it behind.
func writeAtomic(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	if err = f.Chmod(0o644); err == nil {
		_, err = f.Write(data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
