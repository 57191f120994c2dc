package litho

import (
	"math"
	"sync"

	"hotspot/internal/obs"
)

// ODSTSecondsPerCorner is the simulated lithography verification cost of
// printing and analyzing one process corner of one clip, in ODST seconds.
// The paper charges ≈10 s per clip for its industrial ODST simulator;
// DefaultConfig checks five process corners, so pricing a corner at 2 s
// reproduces that figure while letting reduced-corner configurations pay
// proportionally less.
const ODSTSecondsPerCorner = 2.0

// LabelCost returns the simulated ODST seconds charged for labeling one
// clip under this configuration. Every corner in the process window is
// printed and analyzed by the hotspot oracle, so the cost scales with the
// corner count; it is the explicit form of the 10 s/clip constant the
// paper cites (see eval.SimSecondsPerClip, which re-exports the default).
func (c Config) LabelCost() float64 {
	return ODSTSecondsPerCorner * float64(len(c.Corners))
}

// DefaultLabelCost is DefaultConfig().LabelCost(): the per-clip price of a
// label from the default five-corner process, 10 ODST seconds.
func DefaultLabelCost() float64 { return DefaultConfig().LabelCost() }

// Budget meters simulated labeling spend in ODST seconds. Labeling is the
// scarce resource of the hotspot-detection setting — the active-learning
// loop charges every ground-truth query against a Budget and stops
// selecting once the remaining budget cannot cover another clip.
//
// Spend is exported through internal/obs: a monotone counter of charged
// milliseconds (hsd_litho_odst_milliseconds_total — counters are integers,
// and the corner-priced costs are exact in ms), a counter of labels
// charged (hsd_litho_labels_total), and, for finite budgets, a gauge of
// the remaining seconds (hsd_litho_budget_remaining_seconds). The series
// are process-wide like every obs metric: multiple budgets accumulate into
// the same counters, and the gauge shows the most recently charged budget.
//
// Safe for concurrent use; nothing read from the meter feeds any
// computation except the charge decision itself, which is a pure function
// of the charge sequence.
type Budget struct {
	mu    sync.Mutex
	total float64 // <= 0 means unlimited
	spent float64

	spentMS   *obs.Counter
	labelsTot *obs.Counter
	remaining *obs.Gauge
}

// NewBudget builds a budget of the given ODST seconds; seconds <= 0 means
// unlimited (charges always succeed, spend is still metered).
func NewBudget(seconds float64) *Budget {
	reg := obs.Default()
	b := &Budget{
		total:     seconds,
		spentMS:   reg.Counter("hsd_litho_odst_milliseconds_total"),
		labelsTot: reg.Counter("hsd_litho_labels_total"),
	}
	if seconds > 0 {
		b.remaining = reg.Gauge("hsd_litho_budget_remaining_seconds", 3)
		b.remaining.Set(seconds)
	}
	return b
}

// TryCharge charges one label of the given cost against the budget. It
// returns false — and charges nothing — when the remaining budget cannot
// cover the full cost, so a caller labeling a batch stops deterministically
// at the first clip it cannot afford.
func (b *Budget) TryCharge(seconds float64) bool {
	if seconds < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.total > 0 && b.spent+seconds > b.total {
		return false
	}
	b.spent += seconds
	b.spentMS.Add(int64(math.Round(seconds * 1000)))
	b.labelsTot.Inc()
	if b.remaining != nil {
		b.remaining.Set(b.total - b.spent)
	}
	return true
}

// Spent returns the ODST seconds charged so far.
func (b *Budget) Spent() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent
}

// Remaining returns the seconds left, or +Inf for an unlimited budget.
func (b *Budget) Remaining() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.total <= 0 {
		return math.Inf(1)
	}
	return b.total - b.spent
}
