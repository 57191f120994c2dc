package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// exactly reports bit-identity — the budget meter charges exact corner
// multiples, so the accounting must reproduce these values to the bit.
func exactly(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want)
}

// 70 s budget at 10 s/clip across 4-clip batches: round 0 labels 4
// (spent 40), round 1 labels 3 and truncates (spent 70), loop stops.
const (
	wantRounds  = 2
	wantLabels  = 7
	wantSeconds = 70
)

type roundEvent struct {
	Event           string  `json:"event"`
	Round           int     `json:"round"`
	Scored          int     `json:"scored"`
	Selected        []int   `json:"selected"`
	Labeled         int     `json:"labeled"`
	BudgetSpent     float64 `json:"budget_spent"`
	BudgetRemaining float64 `json:"budget_remaining"`
	Truncated       bool    `json:"truncated"`
}

type resultEvent struct {
	RoundsRun       int     `json:"rounds_run"`
	LabeledTotal    int     `json:"labeled_total"`
	BudgetSpent     float64 `json:"budget_spent"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

// activeStep runs hsd-active on a tiny pool with a budget chosen to
// exhaust mid-batch, then asserts the exact budget accounting, which holds
// for any model weights: 24 pool clips at the default 10 s/clip under a
// 70 s budget label 4 clips in round 0 and 3 in round 1 before the fourth
// charge is refused, so the loop truncates, stops, and the JSONL manifest
// and the litho budget meters all read exactly 70 spent seconds and 7
// labels.
func activeStep(dir string) error {
	manifestPath := filepath.Join(dir, "active.jsonl")
	metricsPath := filepath.Join(dir, "active-metrics.txt")
	if err := runBin(dir, "hsd-active",
		"-pool", "24", "-eval", "8", "-rounds", "3", "-batch", "4",
		"-budget", "70", "-blocks", "4", "-k", "8", "-iters", "40",
		"-seed", "3", "-workers", "2",
		"-manifest", manifestPath, "-metrics-out", metricsPath); err != nil {
		return err
	}

	if err := checkManifest(manifestPath); err != nil {
		return err
	}
	// The litho budget meters and the loop counters and stage summaries,
	// exact where the accounting pins them: 7 labels at 10 s each, down to
	// a zero remainder.
	if err := checkSeries(metricsPath,
		"hsd_litho_odst_milliseconds_total 70000",
		"hsd_litho_labels_total 7",
		"hsd_litho_budget_remaining_seconds 0.000",
		"hsd_active_rounds_total 2",
		"hsd_active_selected_total 8",
		"hsd_active_labeled_total 7",
		`stage="active/score"`,
		`stage="active/select"`,
		`stage="active/label"`,
		`stage="active/tune"`,
	); err != nil {
		return err
	}
	fmt.Println("smoke: active metrics OK (budget meters exact, loop counters, stage summaries)")
	return nil
}

// checkManifest parses the JSONL stream line by line and asserts the
// exact per-round budget trajectory.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var (
		events []string
		rounds []roundEvent
		result resultEvent
	)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		var head struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(sc.Bytes(), &head); err != nil {
			return fmt.Errorf("unparseable manifest line %q: %w", sc.Text(), err)
		}
		events = append(events, head.Event)
		switch head.Event {
		case "round":
			var r roundEvent
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return err
			}
			rounds = append(rounds, r)
		case "result":
			if err := json.Unmarshal(sc.Bytes(), &result); err != nil {
				return err
			}
		}
	}
	want := []string{"manifest", "round", "round", "result"}
	if strings.Join(events, ",") != strings.Join(want, ",") {
		return fmt.Errorf("manifest events %v, want %v", events, want)
	}
	if len(rounds) != wantRounds {
		return fmt.Errorf("%d round events, want %d", len(rounds), wantRounds)
	}
	r0, r1 := rounds[0], rounds[1]
	if r0.Scored != 24 || len(r0.Selected) != 4 || r0.Labeled != 4 ||
		!exactly(r0.BudgetSpent, 40) || !exactly(r0.BudgetRemaining, 30) || r0.Truncated {
		return fmt.Errorf("round 0 accounting off: %+v", r0)
	}
	if r1.Scored != 20 || len(r1.Selected) != 4 || r1.Labeled != 3 ||
		!exactly(r1.BudgetSpent, wantSeconds) || !exactly(r1.BudgetRemaining, 0) || !r1.Truncated {
		return fmt.Errorf("round 1 accounting off: %+v", r1)
	}
	if result.RoundsRun != wantRounds || result.LabeledTotal != wantLabels ||
		!exactly(result.BudgetSpent, wantSeconds) || !exactly(result.BudgetRemaining, 0) {
		return fmt.Errorf("result accounting off: %+v", result)
	}
	fmt.Printf("smoke: active manifest OK (%d rounds, %d labels, %.0f s spent, truncated mid-batch)\n",
		result.RoundsRun, result.LabeledTotal, result.BudgetSpent)
	return nil
}
