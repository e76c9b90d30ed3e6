// Car following: reproduce the paper's headline evaluation (§VII-B1) —
// a follower tracking a sine-speed lead through a complex-scene episode —
// across all five scheduling schemes, printing Table II/III-style rows.
//
//	go run ./examples/carfollowing
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"hcperf/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tspeed RMS (m/s)\tdist RMS (m)\tmiss ratio\tcmds/s\te2e (ms)")
	var hcperf, worst float64
	for _, s := range scenario.AllSchemes() {
		r, err := scenario.RunCarFollowing(scenario.CarFollowingConfig{Loop: scenario.Loop{
			Scheme: s,
			Seed:   1,
		}})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%v\t%.3f\t%.3f\t%.3f\t%.1f\t%.0f\n",
			s, r.SpeedErrRMS, r.DistErrRMS, r.Miss.MeanRatio(),
			r.Throughput, r.EngineStats.EndToEnd.Mean()*1000)
		if s == scenario.SchemeHCPerf {
			hcperf = r.SpeedErrRMS
		} else if r.SpeedErrRMS > worst {
			worst = r.SpeedErrRMS
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nHCPerf improves speed tracking by %.1f%% over the worst baseline.\n",
		(worst-hcperf)/worst*100)
	fmt.Println("(paper: 7.69%–45.94% across scenarios)")
	return nil
}
