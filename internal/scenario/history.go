package scenario

import (
	"fmt"
	"sort"

	"hcperf/internal/vehicle"
)

// history is a plant's full-resolution world history for stale
// perception: one row of world state per dynamics step, appended as the
// step ends and looked up at a control command's source time. Times never
// move backwards, so a lookup is one binary search.
type history[R any] []histRow[R]

// histRow is the world state a plant recorded at time t.
type histRow[R any] struct {
	t   float64
	row R
}

// add appends the row recorded at time t; t must not be before the last
// row's time.
func (h *history[R]) add(t float64, row R) error {
	if n := len(*h); n > 0 && t < (*h)[n-1].t {
		return fmt.Errorf("scenario: history time %v before %v", t, (*h)[n-1].t)
	}
	*h = append(*h, histRow[R]{t: t, row: row})
	return nil
}

// at returns the latest row recorded at or before t (zero-order hold) and
// whether there is one.
func (h history[R]) at(t float64) (R, bool) {
	i := sort.Search(len(h), func(i int) bool { return h[i].t > t })
	if i == 0 {
		var zero R
		return zero, false
	}
	return h[i-1].row, true
}

// lonState is the longitudinal world a car-following perception reads:
// the lead's and the follower's speed and position. It also keeps the
// follower's achieved acceleration, which a platoon successor perceives
// (Predecessor).
type lonState struct {
	leadSpeed, leadPos, folSpeed, folPos, folAccel float64
}

// lonStateOf reads the longitudinal world of a lead, whose speed the
// caller has read once for the whole dynamics step, and its follower.
func lonStateOf(lead *vehicle.Lead, leadSpeed float64, fol *vehicle.Longitudinal) lonState {
	return lonState{leadSpeed: leadSpeed, leadPos: lead.Position, folSpeed: fol.Speed, folPos: fol.Position, folAccel: fol.Accel()}
}

// latState is the lateral world a lane-keeping perception reads: offset
// from the lane centre, heading error and distance travelled.
type latState struct {
	offset, heading, dist float64
}
