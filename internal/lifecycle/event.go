package lifecycle

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"hcperf/internal/dag"
	"hcperf/internal/simtime"
)

// EventKind classifies one lifecycle transition of a job.
type EventKind uint8

// Lifecycle event kinds, in the order a healthy job traverses them.
const (
	// EventRelease: a job entered the system — a source capture started,
	// or a data-triggered task joined the ready queue.
	EventRelease EventKind = iota + 1
	// EventDeliver: a source capture finished off-CPU and delivered its
	// output downstream.
	EventDeliver
	// EventDispatch: a ready job started executing on a processor.
	EventDispatch
	// EventComplete: a dispatched job finished within all its deadlines.
	EventComplete
	// EventMiss: a dispatched job finished after its deadline; its output
	// was discarded.
	EventMiss
	// EventExpire: a queued job's deadline passed before it ever ran; it
	// was dropped from the ready queue.
	EventExpire
	// EventInvalid: a data-triggered cycle was suppressed because an
	// input exceeded the data-age validity bound.
	EventInvalid
	// EventControl: an on-time control completion emitted a command.
	EventControl
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventRelease:
		return "release"
	case EventDeliver:
		return "deliver"
	case EventDispatch:
		return "dispatch"
	case EventComplete:
		return "complete"
	case EventMiss:
		return "miss"
	case EventExpire:
		return "expire"
	case EventInvalid:
		return "invalid"
	case EventControl:
		return "control"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one structured lifecycle trace record. Events for a given task
// are emitted in causal order; Cycle ties the records of one job together.
type Event struct {
	// Kind is the lifecycle transition.
	Kind EventKind
	// Task is the graph-local task ID; TaskName its human-readable name.
	Task     dag.TaskID
	TaskName string
	// Cycle is the job's task-local release sequence number.
	Cycle uint64
	// T is when the event happened on the backend's clock.
	T simtime.Time
	// Proc is the processor involved (Dispatch/Complete/Miss), -1 when
	// the event is not bound to a processor.
	Proc int
	// SourceTime is the sensing instant of the job's primary chain.
	SourceTime simtime.Time
	// Deadline is the job's absolute deadline (zero for Deliver events,
	// whose captures cannot miss).
	Deadline simtime.Time
}

// Tracer receives the kernel's lifecycle event stream. Implementations are
// invoked synchronously under the backend's execution context (the event
// loop in the engine, the executor lock in rt) and must not call back into
// the kernel.
type Tracer interface {
	Trace(ev Event)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(ev Event)

// Trace implements Tracer.
func (f TracerFunc) Trace(ev Event) { f(ev) }

// Ring is a bounded ring-buffer event collector: it keeps the most recent
// Cap events and counts how many older ones it dropped. The zero value is
// not usable; construct with NewRing.
type Ring struct {
	buf     []Event
	head    int // next write position
	filled  bool
	dropped uint64
}

// NewRing returns a collector retaining up to capacity events.
func NewRing(capacity int) (*Ring, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("lifecycle: ring capacity %d < 1", capacity)
	}
	return &Ring{buf: make([]Event, 0, capacity)}, nil
}

// Trace implements Tracer.
func (r *Ring) Trace(ev Event) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.filled = true
	r.buf[r.head] = ev
	r.head = (r.head + 1) % cap(r.buf)
	r.dropped++
}

// Len returns the number of retained events.
func (r *Ring) Len() int { return len(r.buf) }

// Dropped returns how many events were evicted to make room.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Events returns the retained events oldest-first as a fresh slice.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	if r.filled {
		out = append(out, r.buf[r.head:]...)
		out = append(out, r.buf[:r.head]...)
		return out
	}
	return append(out, r.buf...)
}

// WriteCSV writes events as CSV rows:
// kind,task,cycle,t,proc,source_time,deadline.
func WriteCSV(w io.Writer, events []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "task", "cycle", "t", "proc", "source_time", "deadline"}); err != nil {
		return fmt.Errorf("lifecycle: write header: %w", err)
	}
	for _, ev := range events {
		rec := []string{
			ev.Kind.String(),
			ev.TaskName,
			strconv.FormatUint(ev.Cycle, 10),
			strconv.FormatFloat(float64(ev.T), 'g', -1, 64),
			strconv.Itoa(ev.Proc),
			strconv.FormatFloat(float64(ev.SourceTime), 'g', -1, 64),
			strconv.FormatFloat(float64(ev.Deadline), 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("lifecycle: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// chromeEvent is one record of the Chrome trace-event JSON format
// (chrome://tracing, Perfetto). Ts and Dur are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level Chrome trace document.
type chromeTrace struct {
	TraceEvents []chromeEvent     `json:"traceEvents"`
	Metadata    map[string]string `json:"otherData,omitempty"`
}

const (
	chromePidProcs = 1 // processor-occupancy rows: one tid per processor
	chromePidTasks = 2 // per-task lifecycle rows: one tid per task
)

// WriteChromeTrace renders the event stream as a Chrome trace-event JSON
// document loadable in chrome://tracing or Perfetto. Each dispatched job
// becomes a duration slice on its processor's row (pid 1); releases,
// deliveries, expirations, invalid cycles and control emissions become
// instant markers on the owning task's row (pid 2).
func WriteChromeTrace(w io.Writer, events []Event) error {
	doc := chromeTrace{
		TraceEvents: make([]chromeEvent, 0, len(events)),
		Metadata:    map[string]string{"source": "hcperf lifecycle kernel"},
	}
	// Pending dispatch instants, keyed by (task, cycle), to pair with the
	// matching Complete/Miss into a duration slice.
	type jobKey struct {
		task  dag.TaskID
		cycle uint64
	}
	pending := make(map[jobKey]Event)
	us := func(t simtime.Time) float64 { return float64(t) * 1e6 }
	for _, ev := range events {
		switch ev.Kind {
		case EventDispatch:
			pending[jobKey{ev.Task, ev.Cycle}] = ev
		case EventComplete, EventMiss:
			key := jobKey{ev.Task, ev.Cycle}
			start, ok := pending[key]
			if !ok {
				continue // dispatch fell outside the retained window
			}
			delete(pending, key)
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name:  start.TaskName,
				Cat:   "job",
				Phase: "X",
				Ts:    us(start.T),
				Dur:   us(ev.T - start.T),
				Pid:   chromePidProcs,
				Tid:   start.Proc,
				Args: map[string]any{
					"cycle":    ev.Cycle,
					"outcome":  ev.Kind.String(),
					"deadline": float64(ev.Deadline),
				},
			})
		default:
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name:  ev.TaskName + "/" + ev.Kind.String(),
				Cat:   "lifecycle",
				Phase: "i",
				Ts:    us(ev.T),
				Pid:   chromePidTasks,
				Tid:   int(ev.Task),
				Scope: "t",
				Args: map[string]any{
					"cycle":       ev.Cycle,
					"source_time": float64(ev.SourceTime),
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("lifecycle: encode chrome trace: %w", err)
	}
	return nil
}
