package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"hotspot/internal/dataset"
	"hotspot/internal/layout"
)

// trainStep generates a tiny labelled suite in-process, runs hsd-train
// over it with -telemetry and -metrics-out, and asserts the observability
// contract: the telemetry JSONL carries a parseable manifest, per-epoch
// records and a result with the model checksum, and the metrics dump
// exposes the train/step stage summary.
func trainStep(dir string) error {
	// A deliberately tiny suite: enough clips for a 25% validation split
	// and a couple of mini-batches, nowhere near enough to train well.
	// The smoke asserts observability plumbing, not model quality.
	style := layout.StyleICCAD()
	counts := layout.Counts{TrainHS: 8, TrainNHS: 24, TestHS: 1, TestNHS: 3}
	suite, err := layout.BuildSuite(style, counts, layout.BuildOptions{Seed: 11})
	if err != nil {
		return fmt.Errorf("building suite: %w", err)
	}
	suitePath := filepath.Join(dir, "suite.gob")
	f, err := os.Create(suitePath)
	if err != nil {
		return err
	}
	err = dataset.FromSuite(suite, style).Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("saving suite: %w", err)
	}

	telemetryPath := filepath.Join(dir, "train.jsonl")
	metricsPath := filepath.Join(dir, "train-metrics.txt")
	if err := runBin(dir, "hsd-train",
		"-data", suitePath,
		"-out", filepath.Join(dir, "model.gob"),
		"-iters", "30", "-rounds", "1", "-workers", "2",
		"-telemetry", telemetryPath,
		"-metrics-out", metricsPath); err != nil {
		return err
	}

	if err := checkTelemetry(telemetryPath); err != nil {
		return err
	}
	// The training and feature stage summaries, in the registry's
	// exposition format.
	return checkSeries(metricsPath,
		`hsd_stage_seconds_count{stage="train/step"}`,
		`hsd_stage_seconds{stage="train/step",q="p50"}`,
		`hsd_stage_seconds_count{stage="train/epoch"}`,
		`hsd_stage_seconds_count{stage="feature/dct"}`,
		`hsd_stage_seconds_count{stage="parallel/pass"}`,
	)
}

// checkTelemetry asserts the JSONL stream is one manifest, then at least
// one epoch record, then one result carrying the model checksum.
func checkTelemetry(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()

	var events []map[string]any
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("telemetry line %d not JSON: %q: %w", len(events)+1, line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(events) < 3 {
		return fmt.Errorf("telemetry has %d events, want manifest + epochs + result", len(events))
	}

	manifest := events[0]
	if manifest["event"] != "manifest" {
		return fmt.Errorf("first event is %v, want manifest", manifest["event"])
	}
	for _, key := range []string{"suite", "seed", "workers", "rounds", "learning_rate"} {
		if _, ok := manifest[key]; !ok {
			return fmt.Errorf("manifest missing %q: %v", key, manifest)
		}
	}

	epochs := 0
	for _, ev := range events[1 : len(events)-1] {
		if ev["event"] != "epoch" {
			return fmt.Errorf("middle event is %v, want epoch", ev["event"])
		}
		for _, key := range []string{"round", "iter", "loss", "val_accuracy", "val_false_alarms", "learning_rate", "step_p50_seconds"} {
			if _, ok := ev[key]; !ok {
				return fmt.Errorf("epoch record missing %q: %v", key, ev)
			}
		}
		epochs++
	}
	if epochs < 1 {
		return fmt.Errorf("no epoch records between manifest and result")
	}

	result := events[len(events)-1]
	if result["event"] != "result" {
		return fmt.Errorf("last event is %v, want result", result["event"])
	}
	sum, _ := result["model_fnv64a"].(string)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(sum) {
		return fmt.Errorf("result model_fnv64a %q is not a 16-hex-digit checksum", sum)
	}
	fmt.Printf("smoke: train telemetry OK (%d epoch records, model %s)\n", epochs, sum)
	return nil
}
