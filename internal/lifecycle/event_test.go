package lifecycle

import (
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestEventKindStrings(t *testing.T) {
	kinds := map[EventKind]string{
		EventRelease:  "release",
		EventDeliver:  "deliver",
		EventDispatch: "dispatch",
		EventComplete: "complete",
		EventMiss:     "miss",
		EventExpire:   "expire",
		EventInvalid:  "invalid",
		EventControl:  "control",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := EventKind(0).String(); got != "kind(0)" {
		t.Errorf("zero kind = %q", got)
	}
}

func TestTracerFunc(t *testing.T) {
	var got []EventKind
	var tr Tracer = TracerFunc(func(ev Event) { got = append(got, ev.Kind) })
	tr.Trace(Event{Kind: EventRelease})
	tr.Trace(Event{Kind: EventComplete})
	if len(got) != 2 || got[0] != EventRelease || got[1] != EventComplete {
		t.Errorf("tracer saw %v", got)
	}
}

func TestNewRingRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		if _, err := NewRing(c); err == nil {
			t.Errorf("NewRing(%d) accepted", c)
		}
	}
}

func TestRingRetainsNewestOldestFirst(t *testing.T) {
	r, err := NewRing(3)
	if err != nil {
		t.Fatal(err)
	}
	for c := uint64(1); c <= 5; c++ {
		r.Trace(Event{Kind: EventRelease, Cycle: c})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	got := r.Events()
	want := []uint64{3, 4, 5}
	for i, ev := range got {
		if ev.Cycle != want[i] {
			t.Fatalf("Events()[%d].Cycle = %d, want %d (full: %v)", i, ev.Cycle, want[i], got)
		}
	}
	// The returned slice must be a copy, not a view into the buffer.
	got[0].Cycle = 99
	if r.Events()[0].Cycle != 3 {
		t.Error("Events() aliases the internal buffer")
	}
}

func TestRingBelowCapacity(t *testing.T) {
	r, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	r.Trace(Event{Cycle: 1})
	r.Trace(Event{Cycle: 2})
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d", r.Len(), r.Dropped())
	}
	if evs := r.Events(); evs[0].Cycle != 1 || evs[1].Cycle != 2 {
		t.Fatalf("order: %v", evs)
	}
}

func sampleEvents() []Event {
	return []Event{
		{Kind: EventRelease, Task: 1, TaskName: "camera", Cycle: 1, T: 0, Proc: -1, SourceTime: 0},
		{Kind: EventDeliver, Task: 1, TaskName: "camera", Cycle: 1, T: 0.01, Proc: -1, SourceTime: 0},
		{Kind: EventDispatch, Task: 2, TaskName: "control", Cycle: 1, T: 0.02, Proc: 0, SourceTime: 0, Deadline: 0.1},
		{Kind: EventComplete, Task: 2, TaskName: "control", Cycle: 1, T: 0.05, Proc: 0, SourceTime: 0, Deadline: 0.1},
		{Kind: EventControl, Task: 2, TaskName: "control", Cycle: 1, T: 0.05, Proc: -1, SourceTime: 0, Deadline: 0.1},
		{Kind: EventDispatch, Task: 2, TaskName: "control", Cycle: 2, T: 0.12, Proc: 1, SourceTime: 0.1, Deadline: 0.2},
		{Kind: EventMiss, Task: 2, TaskName: "control", Cycle: 2, T: 0.25, Proc: 1, SourceTime: 0.1, Deadline: 0.2},
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not parseable CSV: %v", err)
	}
	if len(rows) != 1+7 {
		t.Fatalf("%d rows, want header + 7", len(rows))
	}
	header := strings.Join(rows[0], ",")
	if header != "kind,task,cycle,t,proc,source_time,deadline" {
		t.Errorf("header %q", header)
	}
	if rows[1][0] != "release" || rows[1][1] != "camera" || rows[1][2] != "1" {
		t.Errorf("first row %v", rows[1])
	}
	if rows[7][0] != "miss" || rows[7][4] != "1" {
		t.Errorf("last row %v", rows[7])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Ts    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			Pid   int     `json:"pid"`
			Tid   int     `json:"tid"`
			Args  struct {
				Outcome string `json:"outcome"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var slices, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "X":
			slices++
			if ev.Pid != chromePidProcs {
				t.Errorf("slice %q on pid %d", ev.Name, ev.Pid)
			}
			switch ev.Args.Outcome {
			case "complete":
				// cycle 1: dispatched at 20 ms on proc 0, 30 ms long
				// (microsecond values carry float rounding).
				if ev.Tid != 0 || math.Abs(ev.Ts-20000) > 1e-6 || math.Abs(ev.Dur-30000) > 1e-6 {
					t.Errorf("complete slice tid=%d ts=%v dur=%v", ev.Tid, ev.Ts, ev.Dur)
				}
			case "miss":
				if ev.Tid != 1 {
					t.Errorf("miss slice tid=%d", ev.Tid)
				}
			default:
				t.Errorf("slice outcome %q", ev.Args.Outcome)
			}
		case "i":
			instants++
			if ev.Pid != chromePidTasks {
				t.Errorf("instant %q on pid %d", ev.Name, ev.Pid)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	// 2 dispatch→outcome pairs; release, deliver, control as instants.
	if slices != 2 || instants != 3 {
		t.Errorf("slices=%d instants=%d, want 2 and 3", slices, instants)
	}
}

// TestWriteChromeTraceUnpairedOutcome: a Complete whose Dispatch was
// evicted from the ring must be skipped, not paired with garbage.
func TestWriteChromeTraceUnpairedOutcome(t *testing.T) {
	var sb strings.Builder
	events := []Event{
		{Kind: EventComplete, Task: 2, TaskName: "control", Cycle: 9, T: 0.5, Proc: 0},
	}
	if err := WriteChromeTrace(&sb, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("%d events emitted for an unpaired outcome", len(doc.TraceEvents))
	}
}
