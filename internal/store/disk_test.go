package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// digestN fabricates a distinct valid (hex) digest for tests.
func digestN(n int) string { return fmt.Sprintf("%064x", n) }

func openTestDisk(t *testing.T, maxBytes int64) (*Disk, *Metrics) {
	t.Helper()
	m := &Metrics{}
	d, err := OpenDisk(filepath.Join(t.TempDir(), "store"), maxBytes, m)
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

func TestDiskPutGetRoundTrip(t *testing.T) {
	d, m := openTestDisk(t, 0)
	if _, ok := d.Get(digestN(1)); ok {
		t.Fatal("empty store reported a hit")
	}
	if got := m.DiskMisses.Load(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	want := []byte(`{"v":1,"hello":"world"}`)
	if err := d.Put(digestN(1), want); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(digestN(1))
	if !ok || string(got) != string(want) {
		t.Fatalf("Get = (%q, %t), want stored bytes", got, ok)
	}
	if hits := m.DiskHits.Load(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	d1, err := OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put(digestN(7), []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// A fresh process: reopen the same directory.
	d2, err := OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Errorf("reopened Len = %d, want 1 (index rebuilt from disk)", d2.Len())
	}
	got, ok := d2.Get(digestN(7))
	if !ok || string(got) != "persisted" {
		t.Fatalf("reopened Get = (%q, %t), want persisted entry", got, ok)
	}
}

func TestDiskCrossProcessReadThrough(t *testing.T) {
	// Two Disk handles on one directory model the CLI pre-warming a
	// server's store: a write through one handle must be a hit through
	// the other, even though the second handle never indexed it.
	dir := filepath.Join(t.TempDir(), "store")
	a, err := OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDisk(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(digestN(3), []byte("warm")); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get(digestN(3))
	if !ok || string(got) != "warm" {
		t.Fatalf("cross-handle Get = (%q, %t), want hit", got, ok)
	}
	if b.Len() != 1 {
		t.Errorf("read-through did not index the entry: Len = %d, want 1", b.Len())
	}
}

func TestDiskSizeCapEvictsOldestFirst(t *testing.T) {
	d, m := openTestDisk(t, 30) // three 10-byte entries fit exactly
	payload := []byte("0123456789")
	base := time.Now().Add(-time.Hour)
	// Written in the order 3, 2, 1, with mtimes pinned in the order 1, 2,
	// 3: the reopened store orders its entries by mtime.
	for i := 3; i >= 1; i-- {
		if err := d.Put(digestN(i), payload); err != nil {
			t.Fatal(err)
		}
		at := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(d.path(digestN(i)), at, at); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenDisk(d.Dir(), 30, m)
	if err != nil {
		t.Fatal(err)
	}
	// Touch entry 1 via Get: it becomes most recently used.
	if _, ok := d.Get(digestN(1)); !ok {
		t.Fatal("expected hit")
	}
	// A fourth entry overflows the cap; entry 2 (oldest mtime) must go.
	if err := d.Put(digestN(4), payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(digestN(2)); ok {
		t.Error("oldest entry still present; want evicted")
	}
	for _, n := range []int{1, 3, 4} {
		if _, ok := d.Get(digestN(n)); !ok {
			t.Errorf("entry %d evicted; want retained", n)
		}
	}
	if ev := m.DiskEvictions.Load(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

// lruModel is the disk tier's eviction rule written as a scan: the victim
// is the entry with the oldest mtime other than the one just written, ties
// broken on the smaller digest.
type lruModel struct {
	max     int64
	size    int64
	entries map[string]lruModelEntry
	evicted uint64
}

type lruModelEntry struct {
	size  int64
	mtime time.Time
}

func (m *lruModel) put(digest string, size int64, now time.Time) {
	m.size += size - m.entries[digest].size
	m.entries[digest] = lruModelEntry{size, now}
	for m.size > m.max && len(m.entries) > 1 {
		victim := ""
		var ve lruModelEntry
		for d, e := range m.entries {
			if d != digest && (victim == "" || e.mtime.Before(ve.mtime) || (e.mtime.Equal(ve.mtime) && d < victim)) {
				victim, ve = d, e
			}
		}
		m.size -= ve.size
		delete(m.entries, victim)
		m.evicted++
	}
}

func (m *lruModel) remove(digest string) {
	m.size -= m.entries[digest].size
	delete(m.entries, digest)
}

// TestDiskEvictsAsTheMtimeRule drives random Put, Get, Load, Quarantine
// and reopen calls through one store and through lruModel, and checks
// after every call that both hold the same entries and have evicted as
// many. The model stamps each touch with the clock after the call, and
// takes the files' mtimes on reopen, as the store's scan does.
func TestDiskEvictsAsTheMtimeRule(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const maxBytes = 200
		d, m := openTestDisk(t, maxBytes)
		model := &lruModel{max: maxBytes, entries: make(map[string]lruModelEntry)}
		for op := 0; op < 400; op++ {
			key := digestN(rng.Intn(24))
			switch r := rng.Intn(10); {
			case r < 5:
				size := 1 + rng.Intn(60)
				if err := d.Put(key, make([]byte, size)); err != nil {
					t.Fatal(err)
				}
				model.put(key, int64(size), time.Now())
			case r < 7:
				if _, ok := d.Get(key); ok {
					e := model.entries[key]
					e.mtime = time.Now()
					model.entries[key] = e
				}
			case r < 8:
				// A decode that rejects the entry quarantines it.
				d.Load(key, func([]byte) error { return fmt.Errorf("corrupt") })
				model.remove(key)
			case r < 9:
				d.Quarantine(key)
				model.remove(key)
			default:
				var err error
				if d, err = OpenDisk(d.Dir(), maxBytes, m); err != nil {
					t.Fatal(err)
				}
				for digest, e := range model.entries {
					info, err := os.Stat(d.path(digest))
					if err != nil {
						t.Fatal(err)
					}
					e.mtime = info.ModTime()
					model.entries[digest] = e
				}
			}
			dirents, err := os.ReadDir(d.Dir())
			if err != nil {
				t.Fatal(err)
			}
			var files []string
			for _, de := range dirents {
				if name := de.Name(); !de.IsDir() && strings.HasSuffix(name, entrySuffix) {
					files = append(files, strings.TrimSuffix(name, entrySuffix))
				}
			}
			want := make([]string, 0, len(model.entries))
			for digest := range model.entries {
				want = append(want, digest)
			}
			slices.Sort(want)
			if !slices.Equal(files, want) || m.DiskEvictions.Load() != model.evicted || d.SizeBytes() != model.size {
				t.Fatalf("seed %d op %d: store holds %d entries, %d B, %d evicted; the mtime rule %d, %d B, %d evicted",
					seed, op, len(files), d.SizeBytes(), m.DiskEvictions.Load(), len(want), model.size, model.evicted)
			}
		}
	}
}

func TestDiskOversizedEntryStillLands(t *testing.T) {
	d, _ := openTestDisk(t, 4)
	big := []byte("way past the cap")
	if err := d.Put(digestN(9), big); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(digestN(9)); !ok {
		t.Error("just-written oversized entry evicted; want retained until a newer Put")
	}
}

func TestDiskQuarantineCorruptEntry(t *testing.T) {
	d, m := openTestDisk(t, 0)
	if err := d.Put(digestN(5), []byte("soon to be garbage")); err != nil {
		t.Fatal(err)
	}
	d.Quarantine(digestN(5))
	if _, ok := d.Get(digestN(5)); ok {
		t.Error("quarantined entry still served")
	}
	if got := m.Corrupt.Load(); got != 1 {
		t.Errorf("corrupt = %d, want 1", got)
	}
	// The entry was moved aside, not deleted.
	q := filepath.Join(d.Dir(), quarantineDir, digestN(5)+entrySuffix)
	if _, err := os.Stat(q); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}
	if d.Len() != 0 || d.SizeBytes() != 0 {
		t.Errorf("index after quarantine: len=%d size=%d, want 0/0", d.Len(), d.SizeBytes())
	}
}

func TestDiskRejectsTraversalDigests(t *testing.T) {
	d, _ := openTestDisk(t, 0)
	for _, bad := range []string{"", "../../etc/passwd", "ABCDEF", "a/b", strings.Repeat("a", 200)} {
		if err := d.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted; want rejected", bad)
		}
		if _, ok := d.Get(bad); ok {
			t.Errorf("Get(%q) hit; want miss", bad)
		}
	}
}

func TestDiskOpenFailsOnUnusableDir(t *testing.T) {
	// A path whose parent is a regular file cannot be created — the
	// deterministic stand-in for a read-only volume (euid 0 ignores
	// permission bits, so chmod-based read-only checks are unreliable in
	// CI containers).
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(filepath.Join(blocker, "store"), 0, nil); err == nil {
		t.Fatal("OpenDisk under a file succeeded; want error so callers degrade to memory-only")
	}
}

func TestDiskConcurrentReadersAndWriters(t *testing.T) {
	d, _ := openTestDisk(t, 1<<20)
	const (
		goroutines = 8
		rounds     = 50
	)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Half the keys are shared across goroutines so reads and
				// writes genuinely overlap on the same digest.
				key := digestN(i % 10)
				if g%2 == 0 {
					if err := d.Put(key, []byte(strings.Repeat("x", 64))); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				} else if data, ok := d.Get(key); ok && len(data) != 64 {
					t.Errorf("torn read: %d bytes", len(data))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDiskIndexMatchesDirectoryUnderRaces runs random Puts, Gets and
// Quarantines from many goroutines against a store capped at ten entries.
// Reads run outside the lock, so an entry can be evicted or quarantined
// between a read and its index update; it must not come back into the
// index. A later Put, Quarantine or eviction of that digest would hide the
// stray entry again, so the calls run in short rounds and the index is
// checked against the entry files on disk after every round.
func TestDiskIndexMatchesDirectoryUnderRaces(t *testing.T) {
	const (
		goroutines = 8
		ops        = 300
		round      = 10 // calls per goroutine between checks
		digests    = 30
		entrySize  = 64
	)
	d, _ := openTestDisk(t, 10*entrySize)
	data := []byte(strings.Repeat("x", entrySize))
	rngs := make([]*rand.Rand, goroutines)
	for g := range rngs {
		rngs[g] = rand.New(rand.NewSource(int64(g)))
	}
	for done := 0; done < ops; done += round {
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for _, rng := range rngs {
			go func(rng *rand.Rand) {
				defer wg.Done()
				for i := 0; i < round; i++ {
					key := digestN(rng.Intn(digests))
					switch rng.Intn(3) {
					case 0:
						if err := d.Put(key, data); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
					case 1:
						d.Get(key)
					default:
						d.Quarantine(key)
					}
				}
			}(rng)
		}
		wg.Wait()

		dirents, err := os.ReadDir(d.Dir())
		if err != nil {
			t.Fatal(err)
		}
		var files int
		var bytes int64
		for _, de := range dirents {
			if de.IsDir() || !strings.HasSuffix(de.Name(), entrySuffix) {
				continue
			}
			info, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			files++
			bytes += info.Size()
		}
		if d.Len() != files || d.SizeBytes() != bytes {
			t.Fatalf("after %d calls per goroutine: index holds %d entries / %d B, directory %d / %d B",
				done+round, d.Len(), d.SizeBytes(), files, bytes)
		}
	}
}
