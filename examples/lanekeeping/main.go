// Lane keeping: the paper's §VII-B2 loop-driving experiment — one lap of
// an oval circuit at 5 m/s, with the lateral offset as the performance
// metric. Exports the per-scheme offset traces as CSV for plotting
// Fig. 14(b).
//
//	go run ./examples/lanekeeping [-csv lanekeep.csv]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hcperf/internal/scenario"
	"hcperf/internal/trace"
)

func main() {
	csvPath := flag.String("csv", "", "write per-scheme offset traces to this CSV file")
	flag.Parse()
	if err := run(*csvPath); err != nil {
		log.Fatal(err)
	}
}

func run(csvPath string) error {
	merged := trace.NewRecorder()
	fmt.Println("lane keeping, one lap at 5 m/s (four turns):")
	for _, s := range scenario.AllSchemes() {
		r, err := scenario.RunLaneKeeping(scenario.Loop{Scheme: s, Seed: 1})
		if err != nil {
			return err
		}
		fmt.Printf("  %-8v offset RMS %.4f m, max %.4f m, miss ratio %.3f\n",
			s, r.OffsetRMS, r.OffsetMax, r.Miss.MeanRatio())
		for _, p := range r.Rec.Series("offset").Samples {
			if err := merged.Add(s.String(), p.T, p.V); err != nil {
				return err
			}
		}
	}
	if csvPath == "" {
		return nil
	}
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := merged.WriteCSV(f); err != nil {
		return err
	}
	fmt.Printf("offset traces written to %s (series = scheme)\n", csvPath)
	return nil
}
