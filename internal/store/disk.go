package store

import (
	"container/list"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// DefaultMaxBytes is the disk tier's default size cap (1 GiB). At the
// typical few-KiB-per-report entry size that is room for hundreds of
// thousands of runs; operators fronting millions raise it explicitly.
const DefaultMaxBytes = 1 << 30

// quarantineDir is the subdirectory corrupt entries are moved into. They
// are kept, not deleted, so a decode failure stays diagnosable.
const quarantineDir = "quarantine"

// entrySuffix is appended to the digest to form an entry's filename.
const entrySuffix = ".json"

// Disk is the disk-backed content-addressed tier: one file per digest,
// written via temp-file + atomic rename so readers (including other
// processes sharing the directory — the CLI pre-warming a server's store)
// never observe a torn entry. The size cap is enforced on Put by evicting
// the least recently used entries; Get refreshes an entry's recency and
// its mtime, so eviction order is LRU, not FIFO, and a reopened store
// resumes it from the mtimes.
//
// The in-memory size index covers entries written or scanned by this
// process; Get reads through to the filesystem regardless, so entries
// created by another process are still hits. The cap is therefore enforced
// against this process's view of the directory, which is resynchronized on
// open.
type Disk struct {
	dir      string
	maxBytes int64
	metrics  *Metrics

	// mu guards the index and every rename or removal of an entry file, so
	// under it the index matches this process's files. Entry reads and
	// temp-file writes run outside it.
	mu sync.Mutex
	// entries indexes order, which holds each entry in recency order,
	// most recently used at the front, so the eviction victim is at the
	// back.
	entries map[string]*list.Element
	order   *list.List // of *diskEntry
	size    int64
}

type diskEntry struct {
	digest string
	size   int64
}

// OpenDisk opens (creating if needed) a disk store rooted at dir with the
// given size cap (<= 0 selects DefaultMaxBytes). Counters are recorded
// into metrics (which may be shared with the memory tier's owner; nil gets
// a private set). A directory that cannot be created or written — the
// read-only-volume failure mode — returns an error; callers degrade to
// memory-only operation and log the loss rather than failing the service.
func OpenDisk(dir string, maxBytes int64, metrics *Metrics) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if metrics == nil {
		metrics = &Metrics{}
	}
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	// Probe writability now so a read-only volume surfaces at startup,
	// not on the first completed run.
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("store: %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())

	d := &Disk{dir: dir, maxBytes: maxBytes, metrics: metrics, entries: make(map[string]*list.Element), order: list.New()}
	if err := d.scan(); err != nil {
		return nil, err
	}
	return d, nil
}

// scan rebuilds the size index from the directory contents, so a reopened
// store enforces its cap over entries written by earlier processes too.
// Entries enter the recency order by mtime, ties broken on the digest, so
// the first to be evicted is the oldest, and of equally old ones the
// smallest digest.
func (d *Disk) scan() error {
	dirents, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", d.dir, err)
	}
	type scanned struct {
		e     *diskEntry
		mtime time.Time
	}
	var found []scanned
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, entrySuffix) {
			continue
		}
		digest := strings.TrimSuffix(name, entrySuffix)
		if !validDigest(digest) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent eviction; skip
		}
		found = append(found, scanned{&diskEntry{digest: digest, size: info.Size()}, info.ModTime()})
	}
	slices.SortFunc(found, func(a, b scanned) int {
		if c := a.mtime.Compare(b.mtime); c != 0 {
			return c
		}
		return strings.Compare(a.e.digest, b.e.digest)
	})
	for _, f := range found {
		d.entries[f.e.digest] = d.order.PushFront(f.e)
		d.size += f.e.size
	}
	return nil
}

// validDigest accepts lowercase-hex content addresses (every run digest is
// a hex SHA-256) and rejects anything that could escape the store
// directory.
func validDigest(digest string) bool {
	if digest == "" || len(digest) > 128 {
		return false
	}
	for _, c := range digest {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Dir returns the store's root directory (for startup logging).
func (d *Disk) Dir() string { return d.dir }

// SetMetrics redirects the disk tier's counters, so a store opened before
// its owner existed (the CLI and hcperf-serve open the -store directory
// first, then hand it to the pipeline or job manager) reports into the
// owner's tiered metrics set.
func (d *Disk) SetMetrics(m *Metrics) {
	if m == nil {
		return
	}
	d.mu.Lock()
	d.metrics = m
	d.mu.Unlock()
}

func (d *Disk) path(digest string) string {
	return filepath.Join(d.dir, digest+entrySuffix)
}

// Get returns the stored bytes for a digest: Load with a decode that
// accepts any bytes.
func (d *Disk) Get(digest string) ([]byte, bool) {
	var data []byte
	ok := d.Load(digest, func(b []byte) error {
		data = b
		return nil
	})
	return data, ok
}

// Load reads the entry for digest, reading through to the filesystem
// (entries written by other processes sharing the directory count too),
// and hands its bytes to decode outside the store's lock. It counts a disk
// hit only once decode accepts the bytes. An entry decode rejects is
// quarantined and counts as a miss and a corrupt entry; an absent or
// unreadable entry is a miss. A successful read refreshes the entry's
// mtime so the size cap evicts in least-recently-used order.
func (d *Disk) Load(digest string, decode func([]byte) error) bool {
	data, ok := d.read(digest)
	if !ok {
		d.metrics.DiskMisses.Add(1)
		return false
	}
	if err := decode(data); err != nil {
		d.Quarantine(digest)
		d.metrics.DiskMisses.Add(1)
		return false
	}
	d.metrics.DiskHits.Add(1)
	return true
}

// read returns the stored bytes for a digest and refreshes its mtime. The
// file I/O runs outside the lock, which covers only the index update.
func (d *Disk) read(digest string) ([]byte, bool) {
	if !validDigest(digest) {
		return nil, false
	}
	path := d.path(digest)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort LRU touch
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.entries[digest]; ok {
		d.order.MoveToFront(el)
	} else if info, err := os.Stat(path); err == nil {
		// Written by another process since our last scan; index it so the
		// size cap covers it from now on. Under the lock this process's
		// files and index agree, so checking the file is still there keeps
		// an entry evicted or quarantined since the read out of the index.
		d.entries[digest] = d.order.PushFront(&diskEntry{digest: digest, size: info.Size()})
		d.size += info.Size()
	}
	return data, true
}

// Put stores data under digest: the bytes land in a temp file first and
// are renamed into place, so concurrent readers see either the old entry
// or the new one, never a prefix. After the write the size cap is enforced
// by evicting least recently used entries (the just-written entry is never
// the victim, so a single oversized result still lands). The temp file is
// written outside the lock; the rename, index update and eviction hold it.
func (d *Disk) Put(digest string, data []byte) error {
	if !validDigest(digest) {
		return fmt.Errorf("store: invalid digest %q", digest)
	}
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.Rename(tmp.Name(), d.path(digest)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: put %s: %w", digest, err)
	}
	size := int64(len(data))
	if el, ok := d.entries[digest]; ok {
		e := el.Value.(*diskEntry)
		d.size += size - e.size
		e.size = size
		d.order.MoveToFront(el)
	} else {
		d.entries[digest] = d.order.PushFront(&diskEntry{digest: digest, size: size})
		d.size += size
	}
	d.evictLocked()
	return nil
}

// evictLocked removes least recently used entries until the store fits
// its cap. The entry just written is at the front and is never the victim,
// so a single oversized result still lands.
func (d *Disk) evictLocked() {
	for d.size > d.maxBytes && d.order.Len() > 1 {
		el := d.order.Back()
		victim := el.Value.(*diskEntry)
		if err := os.Remove(d.path(victim.digest)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			// The file is stuck (permissions?); dropping it from the index
			// anyway would let the directory grow without bound, so keep
			// accounting for it and stop evicting this round.
			return
		}
		d.size -= victim.size
		d.order.Remove(el)
		delete(d.entries, victim.digest)
		d.metrics.DiskEvictions.Add(1)
	}
}

// Quarantine moves a corrupt entry aside (dir/quarantine/<digest>.json) so
// it is served as a miss from now on but stays available for diagnosis.
// internal/run calls this when a stored entry fails to decode or fails its
// integrity check.
func (d *Disk) Quarantine(digest string) {
	if !validDigest(digest) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	src := d.path(digest)
	dst := filepath.Join(d.dir, quarantineDir, digest+entrySuffix)
	if err := os.Rename(src, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
		os.Remove(src) // last resort: a corrupt entry must not keep serving
	}
	if el, ok := d.entries[digest]; ok {
		d.size -= el.Value.(*diskEntry).size
		d.order.Remove(el)
		delete(d.entries, digest)
	}
	d.metrics.Corrupt.Add(1)
}

// Len is the number of entries in this process's index.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// SizeBytes is the indexed total entry size.
func (d *Disk) SizeBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}
