package service

import (
	"container/list"
	"hash/maphash"
	"sync"
)

// The request-body memo answers a repeated POST /v1/runs body without
// decoding, normalizing or digesting it again: it maps the exact bytes of
// a body to the submission they decode to. A Go map keyed by the body
// compares every byte, so no hash alone decides a hit.
const (
	// memoMaxBody is the longest body the memo holds. The handler reads at
	// most this much before it decides; a longer body is decoded as a
	// stream and never enters the memo.
	memoMaxBody = 64 << 10
	// memoBudget bounds the bytes the memo charges for its entries. The
	// serve-hit working set of 160 bodies charges about 170 KiB, so the
	// budget holds about six such sets before it evicts the least recently
	// used entry.
	memoBudget = 1 << 20
	// memoEntryOverhead is what an entry is charged beyond its body and
	// rendered request: the normalized request, the digest, and the map
	// and list cells.
	memoEntryOverhead = 512
	// memoSeenSlots is the size of the table of bodies seen once. A body
	// enters the memo on its second sighting, so bodies that never repeat
	// hold one 64-bit hash each, in a table of fixed size.
	memoSeenSlots = 4096
)

// A submission is one normalized request on its way into the manager: its
// digest and, when the memo made it, the request as the status body nests
// it. Nothing may modify a submission or its request: the memo hands the
// same one to every job made from one body.
type submission struct {
	req RunRequest
	id  string
	// request is the rendered request; nil when the job renders it on
	// first use.
	request []byte
}

// bodyMemo is the bounded, least-recently-used request-body memo.
type bodyMemo struct {
	seed maphash.Seed

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // of *memoEntry, most recently used at the front
	charged int
	// seen holds the hashes of bodies seen once, each in the slot its
	// hash picks; 0 marks an empty slot. It only decides admission.
	seen [memoSeenSlots]uint64
}

type memoEntry struct {
	body string
	sub  submission
	size int
}

func newBodyMemo() *bodyMemo {
	return &bodyMemo{seed: maphash.MakeSeed(), entries: make(map[string]*list.Element), order: list.New()}
}

// lookup returns the submission body decodes to, or nil if the memo does
// not hold it.
func (m *bodyMemo) lookup(body []byte) *submission {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[string(body)]
	if !ok {
		return nil
	}
	m.order.MoveToFront(el)
	return &el.Value.(*memoEntry).sub
}

// offer is called with each body that decoded and normalized cleanly to
// req, whose digest is id, and returns the submission to route. The body
// enters the memo on its second sighting, with its request rendered once
// for every job made from it; on its first, offer only notes its hash.
func (m *bodyMemo) offer(body []byte, req RunRequest, id string) *submission {
	sub := &submission{req: req, id: id}
	h := maphash.Bytes(m.seed, body) | 1 // never 0, the empty slot
	// The slot comes from the bits above the lowest, which is always 1,
	// so every slot is used.
	slot := &m.seen[(h>>1)%memoSeenSlots]
	m.mu.Lock()
	if *slot != h {
		*slot = h
		m.mu.Unlock()
		return sub
	}
	*slot = 0
	m.mu.Unlock()

	request, err := renderRequest(req)
	if err != nil {
		return sub
	}
	e := &memoEntry{
		body: string(body),
		sub:  submission{req: req, id: id, request: request},
		size: len(body) + len(request) + len(id) + memoEntryOverhead,
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[e.body]; ok {
		// Admitted by a concurrent sighting meanwhile.
		m.order.MoveToFront(el)
		return &el.Value.(*memoEntry).sub
	}
	m.entries[e.body] = m.order.PushFront(e)
	m.charged += e.size
	for m.charged > memoBudget {
		oldest := m.order.Back()
		victim := oldest.Value.(*memoEntry)
		m.order.Remove(oldest)
		delete(m.entries, victim.body)
		m.charged -= victim.size
	}
	return &e.sub
}
