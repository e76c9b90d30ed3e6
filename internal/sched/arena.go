package sched

// JobArena is a per-run allocator for Job records: dense fixed-size chunks
// plus an int32 slot freelist. Jobs a kernel creates and retires every cycle
// come out of recycled slots instead of fresh heap allocations, so the
// kernel's working set stays GC-flat — chunks are allocated once and the
// collector never traces churning job garbage.
//
// Chunks are never moved or released, so *Job pointers handed out by New
// remain stable for the life of the arena; the ready queue and scheduling
// policies keep working on []*Job unchanged. A slot is reused only after
// Free, which is the owner's promise that no consumer retains the pointer —
// the same non-retention contract Backend.ProcState already imposes.
//
// The zero JobArena is ready to use. It is not safe for concurrent use; the
// kernel only calls it from the backend's execution context.
type JobArena struct {
	chunks []*[arenaChunkSize]Job
	free   []int32
	next   int32 // high-water slot count
}

const (
	arenaChunkShift = 6
	arenaChunkSize  = 1 << arenaChunkShift
	arenaChunkMask  = arenaChunkSize - 1
)

// New returns a zeroed Job from a recycled slot, growing the arena by one
// chunk when none are free. Callers fill the public fields; Task must end up
// non-nil (a nil Task marks a free slot).
func (a *JobArena) New() *Job {
	var slot int32
	if n := len(a.free); n > 0 {
		slot = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		slot = a.next
		if int(slot>>arenaChunkShift) == len(a.chunks) {
			a.chunks = append(a.chunks, new([arenaChunkSize]Job))
		}
		a.next++
	}
	j := &a.chunks[slot>>arenaChunkShift][slot&arenaChunkMask]
	*j = Job{arenaSlot: slot}
	return j
}

// Free returns a job's slot to the arena. The job must have come from New on
// this arena and must no longer be referenced anywhere; freeing a job twice
// panics (a live arena job always has a non-nil Task).
func (a *JobArena) Free(j *Job) {
	if j.Task == nil {
		panic("sched: JobArena.Free of an already-free job")
	}
	j.Task = nil
	a.free = append(a.free, j.arenaSlot)
}
