// Package store is the tiered result store under the run pipeline: a
// recency-ordered in-memory membership LRU (the serving layer's memory
// tier) and a disk-backed content-addressed blob store (one file per
// request digest, atomic rename writes, size-capped mtime-LRU eviction,
// corrupt-entry quarantine) so computed reports survive process restarts
// and can be shared between the CLI and the server. The store deals in
// opaque bytes keyed by digest; encoding and integrity checking of run
// results live in internal/run, whose decode Disk.Load calls before it
// counts a hit or quarantines the entry.
package store

import (
	"container/list"
	"sync/atomic"
)

// Tier names where a pipeline lookup was satisfied. The values appear
// verbatim in the X-HCPerf-Cache response header, the job-status `cache`
// field and the `tier` label of the hcperf_store_* metrics.
type Tier string

const (
	// TierMemory: the result was already resident in the in-process LRU.
	TierMemory Tier = "memory"
	// TierDisk: the result was read back from the disk store.
	TierDisk Tier = "disk"
	// TierMiss: no tier had the result; it was (re)computed.
	TierMiss Tier = "miss"
)

// Metrics aggregates the per-tier counters of one tiered store. All fields
// are atomics so the memory tier's owner (the job manager), the disk store
// and the pipeline can count concurrently without sharing a lock.
type Metrics struct {
	// MemoryHits / MemoryMisses count lookups against the memory tier.
	MemoryHits, MemoryMisses atomic.Uint64
	// DiskHits / DiskMisses count lookups that reached the disk tier.
	DiskHits, DiskMisses atomic.Uint64
	// MemoryEvictions / DiskEvictions count entries dropped to stay
	// within the respective tier's capacity.
	MemoryEvictions, DiskEvictions atomic.Uint64
	// Corrupt counts disk entries that failed to decode and were moved to
	// quarantine (served as misses, never deleted silently).
	Corrupt atomic.Uint64
}

// LRU is a size-bounded, recency-ordered set of digests — the membership
// index of the memory tier. It is deliberately not self-locking: the
// serving layer's Manager mutates it only under its own mutex, together
// with the job map the entries point into, so membership and the map can
// never disagree.
type LRU struct {
	cap   int
	order *list.List               // front = most recently used
	elems map[string]*list.Element // digest -> order element (Value is the digest)
}

// NewLRU returns an empty LRU bounded to capacity entries (minimum 1).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{cap: capacity, order: list.New(), elems: make(map[string]*list.Element, capacity)}
}

// Add inserts or refreshes a digest and returns the digests evicted to
// stay within capacity.
func (c *LRU) Add(digest string) (evicted []string) {
	if e, ok := c.elems[digest]; ok {
		c.order.MoveToFront(e)
		return nil
	}
	c.elems[digest] = c.order.PushFront(digest)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		d := oldest.Value.(string)
		delete(c.elems, d)
		evicted = append(evicted, d)
	}
	return evicted
}

// Bump marks a digest as most recently used; unknown digests are ignored.
func (c *LRU) Bump(digest string) {
	if e, ok := c.elems[digest]; ok {
		c.order.MoveToFront(e)
	}
}

// Contains reports membership without refreshing recency.
func (c *LRU) Contains(digest string) bool {
	_, ok := c.elems[digest]
	return ok
}

// Len is the current entry count.
func (c *LRU) Len() int { return c.order.Len() }
