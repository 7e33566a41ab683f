package qos

import (
	"fmt"
	"math/bits"
	"sort"

	"hams/internal/sim"
)

// SLO is the objective a feedback Controller holds: keep one class's
// (the victim's) rolling p99 latency at or under a target while
// letting every other class (the aggressor group) draw as much archive
// bandwidth as the target tolerates. The remaining fields bound the
// controller's actuation range; zero values select the defaults noted
// on each field.
type SLO struct {
	// Class names the victim whose latency the controller defends.
	Class string
	// TargetP99 is the rolling-p99 objective (required, > 0).
	TargetP99 sim.Time
	// Window is the victim-latency ring size the p99 is computed over
	// (default 512 observations).
	Window int
	// MinMBps / MaxMBps bound the aggressor-group bandwidth cap the
	// controller may program (defaults 8 and 1e6 MB/s). AddMBps is the
	// additive-increase step applied after Hold compliant samples
	// (default 64 MB/s).
	MinMBps, MaxMBps, AddMBps float64
	// MinWays is the floor on the aggressor group's way allocation
	// (default 1 — the group is never starved of the tag array).
	MinWays int
	// Hold is how many consecutive compliant samples must pass before
	// the controller relaxes the cap (default 2).
	Hold int
}

// Action is one class reprogramming the controller requests: set
// Class's way mask to Mask (0 = full, the Table convention) and its
// bandwidth cap to MBps (0 = unthrottled).
type Action struct {
	Class ClassID
	Mask  uint64
	MBps  float64
}

// minObservations is how many victim latencies must accumulate before
// the p99 estimate is trusted; earlier samples leave the policy alone.
const minObservations = 32

// Controller is the AIMD feedback loop of ROADMAP's dynamic-QoS item:
// it watches the victim's rolling p99 (fed by Observe from the same
// single-threaded completion stream the histograms consume) and each
// MBM sample (OnSample, driven off the monitor's sim-time ticker), and
// answers with CLOS reprogrammings — multiplicative decrease of the
// aggressor group's ways/cap on violation, additive increase of the
// cap after sustained compliance. Every input is a pure function of
// simulated time, so a replayed run reproduces the controller's
// trajectory — and therefore the simulation — bit-for-bit.
type Controller struct {
	slo    SLO
	victim ClassID
	nclass int
	ways   int

	// rolling victim-latency window
	lat     []sim.Time
	scratch []sim.Time
	idx     int
	count   int

	// desired aggressor-group state vs what was last emitted
	aggrWays int
	aggrCap  float64 // 0 = unthrottled
	curWays  int
	curCap   float64

	holds int
}

// NewController builds the feedback controller for a scenario's table
// on a ways-associative array. The table needs the victim class plus
// at least one other class to actuate on; the table itself is not
// retained — the controller only resolves names and initial state
// from it.
func NewController(slo SLO, t *Table, ways int) (*Controller, error) {
	if slo.Class == "" {
		return nil, fmt.Errorf("qos: SLO needs a victim class name")
	}
	victim, ok := t.ByName(slo.Class)
	if !ok {
		return nil, fmt.Errorf("qos: SLO class %q not in the table (have %v)", slo.Class, t.Names())
	}
	if t.Len() < 2 {
		return nil, fmt.Errorf("qos: SLO controller needs at least one non-victim class to actuate on")
	}
	if slo.TargetP99 <= 0 {
		return nil, fmt.Errorf("qos: SLO needs a positive p99 target (got %v)", slo.TargetP99)
	}
	if slo.Window <= 0 {
		slo.Window = 512
	}
	if slo.MinMBps <= 0 {
		slo.MinMBps = 8
	}
	if slo.MaxMBps <= 0 {
		slo.MaxMBps = 1e6
	}
	if slo.MaxMBps < slo.MinMBps {
		return nil, fmt.Errorf("qos: SLO cap ceiling %.1f MB/s below floor %.1f", slo.MaxMBps, slo.MinMBps)
	}
	if slo.AddMBps <= 0 {
		slo.AddMBps = 64
	}
	if slo.MinWays <= 0 {
		slo.MinWays = 1
	}
	if ways > 0 && slo.MinWays >= ways {
		return nil, fmt.Errorf("qos: SLO aggressor way floor %d leaves no ways for the victim on a %d-way array", slo.MinWays, ways)
	}
	if slo.Hold <= 0 {
		slo.Hold = 2
	}

	c := &Controller{
		slo:     slo,
		victim:  victim,
		nclass:  t.Len(),
		ways:    ways,
		lat:     make([]sim.Time, slo.Window),
		scratch: make([]sim.Time, 0, slo.Window),
	}

	// Initial aggressor-group state comes from the first non-victim
	// class; the controller programs the whole group uniformly from
	// here on, so a table whose aggressors start heterogeneous
	// converges to uniform at the first reprogramming.
	masks := t.Masks(ways)
	for i := range t.Classes {
		if ClassID(i) == victim {
			continue
		}
		c.aggrWays = bits.OnesCount64(masks[i])
		c.aggrCap = t.Classes[i].MBps
		break
	}
	c.curWays, c.curCap = c.aggrWays, c.aggrCap
	return c, nil
}

// Observe feeds one completed-request latency into the rolling window.
// Only the victim class is recorded; call it for every completion and
// the controller filters.
func (c *Controller) Observe(cls ClassID, lat sim.Time) {
	if cls != c.victim {
		return
	}
	c.lat[c.idx] = lat
	c.idx = (c.idx + 1) % len(c.lat)
	if c.count < len(c.lat) {
		c.count++
	}
}

// P99 returns the rolling p99 (nearest-rank) over the current window,
// or 0 while fewer than minObservations latencies have arrived.
func (c *Controller) P99() sim.Time {
	if c.count < minObservations {
		return 0
	}
	c.scratch = append(c.scratch[:0], c.lat[:c.count]...)
	sort.Slice(c.scratch, func(i, j int) bool { return c.scratch[i] < c.scratch[j] })
	rank := (99*c.count + 99) / 100 // ceil(0.99·n), nearest-rank
	if rank > c.count {
		rank = c.count
	}
	return c.scratch[rank-1]
}

// OnSample runs one control step against a fresh MBM sample covering
// `period` of simulated time, and returns the reprogrammings to apply
// (empty when the policy should stand). AIMD:
//
//   - violation (p99 > target): halve the aggressor cap, seeding an
//     uncapped group from its measured bandwidth in this window; a
//     gross violation (p99 > 2×target) additionally halves the
//     group's way allocation down to the MinWays floor.
//   - compliance for Hold consecutive samples: add AddMBps back onto
//     the cap, up to MaxMBps.
//
// The victim's mask is always the complement of the aggressor mask
// (or full when the group holds every way); its cap is never touched.
func (c *Controller) OnSample(s Sample, period sim.Time) []Action {
	p99 := c.P99()
	if p99 == 0 {
		return nil
	}
	if p99 > c.slo.TargetP99 {
		c.holds = 0
		if p99 > 2*c.slo.TargetP99 && c.aggrWays > c.slo.MinWays {
			c.aggrWays /= 2
			if c.aggrWays < c.slo.MinWays {
				c.aggrWays = c.slo.MinWays
			}
		}
		if c.aggrCap == 0 {
			c.aggrCap = clampCap(c.aggrBandwidth(s, period)/2, c.slo)
		} else {
			c.aggrCap = clampCap(c.aggrCap/2, c.slo)
		}
	} else {
		c.holds++
		if c.holds >= c.slo.Hold {
			c.holds = 0
			if c.aggrCap > 0 {
				c.aggrCap = clampCap(c.aggrCap+c.slo.AddMBps, c.slo)
			}
		}
	}
	return c.emit()
}

// aggrBandwidth is the aggressor group's archive bandwidth (fill +
// writeback) over one sample window, in MB/s.
func (c *Controller) aggrBandwidth(s Sample, period sim.Time) float64 {
	if period <= 0 {
		return 0
	}
	var bytes int64
	for i := 0; i < len(s.FillBytes) && i < c.nclass; i++ {
		if ClassID(i) == c.victim {
			continue
		}
		bytes += s.FillBytes[i] + s.WBBytes[i]
	}
	return float64(bytes) / 1e6 / period.Seconds()
}

func clampCap(v float64, slo SLO) float64 {
	if v < slo.MinMBps {
		return slo.MinMBps
	}
	if v > slo.MaxMBps {
		return slo.MaxMBps
	}
	return v
}

// emit diffs the desired aggressor-group state against what was last
// programmed and renders the delta as Actions.
func (c *Controller) emit() []Action {
	if c.aggrWays == c.curWays && c.aggrCap == c.curCap {
		return nil
	}
	waysChanged := c.aggrWays != c.curWays
	c.curWays, c.curCap = c.aggrWays, c.aggrCap

	aggrMask := FullMask(c.aggrWays)
	if c.aggrWays >= c.ways {
		aggrMask = 0 // full
	}
	var out []Action
	for i := 0; i < c.nclass; i++ {
		if ClassID(i) == c.victim {
			continue
		}
		out = append(out, Action{Class: ClassID(i), Mask: aggrMask, MBps: c.aggrCap})
	}
	if waysChanged {
		victimMask := uint64(0)
		if c.aggrWays < c.ways {
			victimMask = FullMask(c.ways) &^ FullMask(c.aggrWays)
		}
		out = append(out, Action{Class: c.victim, Mask: victimMask, MBps: 0})
	}
	return out
}

// State reports the controller's current aggressor-group programming
// (ways, cap) — surfaced in the extras of the qos target's auto cell.
func (c *Controller) State() (ways int, capMBps float64) { return c.curWays, c.curCap }
