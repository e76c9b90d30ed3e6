package main

import (
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuPackages are the packages a traced sim-fleet run splits execute's CPU
// time across, plus the runtime's collector (gc) and allocator (malloc).
// Time in any other frame is reported as "other", the unattributed
// remainder.
var cpuPackages = []string{"simtime", "lifecycle", "engine", "sched", "hungarian", "exectime", "mfc", "rate",
	"vehicle", "scenario", "fleet", "trace", "gc", "malloc"}

// cpuShares returns each package's share of the samples in the CPU profile
// at path, and the number of samples. It reads the samples with
// `go tool pprof -traces`, which prints each distinct stack as a block: a
// separator line, the sample count beside the innermost frame, then the
// callers one a line. Go CPU profiles carry their own symbols, so no binary
// is needed.
func cpuShares(path string) (map[string]float64, int, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	counts := make(map[string]float64)
	total := 0
	var n int
	var frames []string
	flush := func() {
		if frames != nil {
			counts[classifyStack(frames)] += float64(n)
			total += n
		}
		frames = nil
	}
	inBlocks := false
	for _, line := range strings.Split(string(out), "\n") {
		frame := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			inBlocks = true
		case !inBlocks || frame == "":
		case frames == nil:
			count, fn, _ := strings.Cut(frame, " ")
			if n, err = strconv.Atoi(count); err != nil {
				return nil, 0, fmt.Errorf("go tool pprof -traces: bad sample line %q", line)
			}
			frames = append(frames, strings.TrimSpace(fn))
		default:
			frames = append(frames, frame)
		}
	}
	flush()
	if total == 0 {
		return nil, 0, errors.New("cpu profile has no samples")
	}
	for k := range counts {
		counts[k] /= float64(total)
	}
	return counts, total, nil
}

// classifyStack attributes one sample's frames, innermost first. A sample
// belongs to gc when any frame is the collector's, else to malloc when any
// frame is the allocator's, else to the innermost frame in
// hcperf/internal/<pkg>; samples under the benchmark's own frames (its
// lifecycle tracer) and all others go to other.
func classifyStack(frames []string) string {
	for _, f := range frames {
		for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
			"runtime.scanobject", "runtime.sweepone", "runtime.greyobject"} {
			if strings.HasPrefix(f, p) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if f == "runtime.mallocgc" {
			return "malloc"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "other"
		}
		if rest, ok := strings.CutPrefix(f, "hcperf/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			for _, p := range cpuPackages {
				if p == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}
