// Package scenario wires the full HCPerf evaluation stack together: task
// graphs, execution-time profiles, schedulers, the vehicle simulator and
// (for the HCPerf schemes) the hierarchical coordinator, reproducing the
// paper's driving scenarios — car following, lane keeping, the motivation
// example and the traffic-jam responsiveness study.
package scenario

import (
	"fmt"

	"hcperf/internal/sched"
)

// Scheme identifies a scheduling scheme under evaluation (paper §VII-A4).
type Scheme int

// The five schemes of the evaluation plus the Fig. 18 ablation.
const (
	// SchemeHPF is High-Priority-First static scheduling.
	SchemeHPF Scheme = iota + 1
	// SchemeEDF is Earliest-Deadline-First.
	SchemeEDF
	// SchemeEDFVD is EDF with virtual deadlines for high-criticality
	// tasks.
	SchemeEDFVD
	// SchemeApollo is the state-of-the-practice: static processor
	// binding plus static priority.
	SchemeApollo
	// SchemeHCPerf is the full framework: internal + external
	// coordinators.
	SchemeHCPerf
	// SchemeHCPerfInternal is the Fig. 18 ablation: internal coordinator
	// only (no Task Rate Adapter).
	SchemeHCPerfInternal
)

// String implements fmt.Stringer with the paper's labels.
func (s Scheme) String() string {
	switch s {
	case SchemeHPF:
		return "HPF"
	case SchemeEDF:
		return "EDF"
	case SchemeEDFVD:
		return "EDF-VD"
	case SchemeApollo:
		return "Apollo"
	case SchemeHCPerf:
		return "HCPerf"
	case SchemeHCPerfInternal:
		return "HCPerf-Internal"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme resolves a scheme's CLI/API name. It accepts the lowercase
// spellings the CLIs documented ("edfvd" and "edf-vd" both parse) and is
// the single parser hcperf-sim and the serving layer share.
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "hpf":
		return SchemeHPF, nil
	case "edf":
		return SchemeEDF, nil
	case "edfvd", "edf-vd":
		return SchemeEDFVD, nil
	case "apollo":
		return SchemeApollo, nil
	case "hcperf":
		return SchemeHCPerf, nil
	case "hcperf-internal":
		return SchemeHCPerfInternal, nil
	default:
		return 0, fmt.Errorf("scenario: unknown scheme %q", name)
	}
}

// BaselineSchemes returns the four baselines in the paper's table order.
func BaselineSchemes() []Scheme {
	return []Scheme{SchemeHPF, SchemeEDF, SchemeEDFVD, SchemeApollo}
}

// AllSchemes returns the baselines plus full HCPerf, in table order.
func AllSchemes() []Scheme {
	return append(BaselineSchemes(), SchemeHCPerf)
}

// IsHCPerf reports whether the scheme needs the hierarchical coordinator.
func (s Scheme) IsHCPerf() bool { return s == SchemeHCPerf || s == SchemeHCPerfInternal }

// EDFVDScale is the virtual-deadline scaling factor used for EDF-VD.
const EDFVDScale = 0.75

// NewScheduler constructs the scheduler for a scheme. For HCPerf schemes
// the returned *sched.Dynamic is non-nil and must be handed to the
// coordinator.
func NewScheduler(s Scheme) (sched.Scheduler, *sched.Dynamic, error) {
	switch s {
	case SchemeHPF:
		return sched.HPF{}, nil, nil
	case SchemeEDF:
		return sched.EDF{}, nil, nil
	case SchemeEDFVD:
		return sched.NewEDFVD(EDFVDScale), nil, nil
	case SchemeApollo:
		return sched.Apollo{}, nil, nil
	case SchemeHCPerf, SchemeHCPerfInternal:
		dyn := sched.NewDynamic(0)
		return dyn, dyn, nil
	default:
		return nil, nil, fmt.Errorf("scenario: unknown scheme %d", int(s))
	}
}
