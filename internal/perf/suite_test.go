package perf

import (
	"testing"

	"hcperf/internal/run"
)

// TestDecodeResultAllocsIndependentOfSamples pins that decoding a stored
// result allocates per series, never per sample: the ResultCodec pins'
// report decodes in as many allocations at 2,000 samples as at 20,000.
func TestDecodeResultAllocsIndependentOfSamples(t *testing.T) {
	allocs := map[int]float64{}
	for _, samples := range []int{2000, 20000} {
		data := encodedReport(t, samples)
		allocs[samples] = testing.AllocsPerRun(20, func() {
			if _, err := run.DecodeResult(codecDigest, data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[2000] != allocs[20000] {
		t.Errorf("DecodeResult allocations = %v at 2000 samples, %v at 20000; want equal", allocs[2000], allocs[20000])
	}
}
