package litho

import (
	"math"
	"strings"
	"testing"

	"hotspot/internal/obs"
)

// TestLabelCost pins the explicit cost model to the paper's figure: the
// default five-corner process prices a label at exactly 10 ODST seconds,
// and the cost scales linearly with the corner count.
func TestLabelCost(t *testing.T) {
	if got := DefaultLabelCost(); got != 10.0 {
		t.Fatalf("DefaultLabelCost = %v, want 10", got)
	}
	cfg := DefaultConfig()
	cfg.Corners = cfg.Corners[:2]
	if got := cfg.LabelCost(); got != 2*ODSTSecondsPerCorner {
		t.Fatalf("two-corner LabelCost = %v, want %v", got, 2*ODSTSecondsPerCorner)
	}
}

// TestBudgetCharging covers exact accounting: charges succeed up to and
// including the last affordable label, the first unaffordable charge is
// refused without spending, and the meter readings stay exact throughout.
func TestBudgetCharging(t *testing.T) {
	b := NewBudget(25)
	cost := DefaultLabelCost()
	if !b.TryCharge(cost) || !b.TryCharge(cost) {
		t.Fatal("budget refused affordable charges")
	}
	if b.TryCharge(cost) {
		t.Fatal("budget allowed a charge past the limit")
	}
	if got := b.Spent(); got != 20 {
		t.Fatalf("Spent = %v, want 20 (the refused charge must not spend)", got)
	}
	if got := b.Remaining(); got != 5 {
		t.Fatalf("Remaining = %v, want 5", got)
	}
	// A cheaper label still fits in the remainder.
	if !b.TryCharge(5) {
		t.Fatal("budget refused a charge that exactly exhausts it")
	}
	if got := b.Remaining(); got != 0 {
		t.Fatalf("Remaining = %v, want 0 after exact exhaustion", got)
	}
}

// TestBudgetUnlimited: seconds <= 0 means every charge succeeds and
// Remaining is +Inf, while spend is still metered.
func TestBudgetUnlimited(t *testing.T) {
	b := NewBudget(0)
	for i := 0; i < 100; i++ {
		if !b.TryCharge(DefaultLabelCost()) {
			t.Fatal("unlimited budget refused a charge")
		}
	}
	if !math.IsInf(b.Remaining(), 1) {
		t.Fatalf("Remaining = %v, want +Inf", b.Remaining())
	}
	if got := b.Spent(); got != 1000 {
		t.Fatalf("Spent = %v, want 1000", got)
	}
}

// TestBudgetMetrics: the obs series carry the exact charged spend. The
// counters are process-wide, so the test asserts deltas, not absolutes.
func TestBudgetMetrics(t *testing.T) {
	reg := obs.Default()
	msBefore := reg.Counter("hsd_litho_odst_milliseconds_total").Value()
	labelsBefore := reg.Counter("hsd_litho_labels_total").Value()

	b := NewBudget(30)
	if !b.TryCharge(DefaultLabelCost()) || !b.TryCharge(DefaultLabelCost()) {
		t.Fatal("charges refused")
	}
	if b.TryCharge(11) {
		t.Fatal("charge past the limit accepted")
	}
	if d := reg.Counter("hsd_litho_odst_milliseconds_total").Value() - msBefore; d != 20000 {
		t.Fatalf("odst ms counter delta = %d, want 20000", d)
	}
	if d := reg.Counter("hsd_litho_labels_total").Value() - labelsBefore; d != 2 {
		t.Fatalf("labels counter delta = %d, want 2", d)
	}
	if got := reg.Gauge("hsd_litho_budget_remaining_seconds", 3).Value(); got != 10 {
		t.Fatalf("remaining gauge = %v, want 10", got)
	}
	if !strings.Contains(reg.Text(), "hsd_litho_budget_remaining_seconds 10.000") {
		t.Fatalf("scrape text missing exact remaining gauge:\n%s", reg.Text())
	}
}

// TestBudgetNegativeCharge: a negative cost is refused outright.
func TestBudgetNegativeCharge(t *testing.T) {
	b := NewBudget(10)
	if b.TryCharge(-1) {
		t.Fatal("negative charge accepted")
	}
	if b.Spent() != 0 {
		t.Fatal("refused charge mutated the meter")
	}
}
