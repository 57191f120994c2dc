// Package active is the budgeted batch active-learning orchestrator over
// a shared clip pool — the loop of "Bridging the Gap Between Layout
// Pattern Sampling and Hotspot Detection via Batch Active Learning"
// grafted onto this repository's detector: labeling, not compute, is the
// scarce resource (the paper's ODST simulator charges ~10 s per clip), so
// each round scores the unlabeled pool with the fused train.Evaluator,
// selects a batch by hybrid uncertainty + k-center diversity, "labels" it
// via internal/litho while charging a simulated ODST-seconds budget, and
// fine-tunes with train.BiasedLearning warm-started from the previous
// round's weights.
//
// Determinism contract: for a fixed (seed, pool, budget), the selected
// clip sequences and the final trained weights are bit-identical under
// any worker count. Scoring fans over per-worker fused engines into
// index-addressed slots; selection ties break by round-keyed splitmix64
// tokens and then pool index; labeling charges the budget in selection
// order on the orchestrating goroutine; and the fine-tune inherits MGD's
// serial≡parallel gradient parity.
package active

import (
	"fmt"
	"math"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/litho"
	"hotspot/internal/nn"
	"hotspot/internal/obs"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/tensor"
	"hotspot/internal/train"
)

// Pool is the shared clip pool the loop selects from: the clips and their
// feature tensors, extracted once and cached — selection distance and
// pool scoring both run over the cached tensors, so no round re-rasterizes
// anything.
type Pool struct {
	Clips   []geom.Clip
	Tensors []*tensor.Tensor
}

// NewPool extracts and caches one feature tensor per clip, fanning the
// extraction across workers (0 = parallel.Default()).
func NewPool(clips []geom.Clip, core geom.Rect, cfg feature.TensorConfig, workers int) (*Pool, error) {
	if len(clips) == 0 {
		return nil, fmt.Errorf("active: empty clip pool")
	}
	ts, err := feature.ExtractTensors(clips, core, cfg, workers)
	if err != nil {
		return nil, err
	}
	return &Pool{Clips: clips, Tensors: ts}, nil
}

// Labeler produces the ground-truth label of pool clip i — in production
// a litho oracle query (layout.Labeler.Label), in tests a fixture. The
// loop calls it serially in selection order, after the budget charge for
// the clip has succeeded.
type Labeler func(i int, c geom.Clip) (bool, error)

// Selection strategies.
const (
	// StrategyHybrid selects by uncertainty margin + greedy k-center
	// diversity (selector.selectHybrid) — the default.
	StrategyHybrid = "hybrid"
	// StrategyRandom selects uniformly at random (round-keyed, SelectRandom)
	// — the baseline the accuracy-vs-budget curves compare against.
	StrategyRandom = "random"
)

// Config parameterizes the loop.
type Config struct {
	// Rounds bounds the select→label→tune rounds; the loop also stops
	// early when the budget cannot cover any clip of a round's batch.
	Rounds int
	// Batch is the number of clips selected (and, budget permitting,
	// labeled) per round.
	Batch int
	// Candidates bounds the uncertainty shortlist fed to the k-center
	// stage (0 = 4×Batch). Ignored by StrategyRandom.
	Candidates int
	// Strategy is StrategyHybrid ("" = hybrid) or StrategyRandom.
	Strategy string
	// LabelSeconds is the simulated ODST cost charged per labeled clip
	// (0 = litho.DefaultLabelCost(), the paper's 10 s figure).
	LabelSeconds float64
	// BudgetSeconds is the total labeling budget (0 = unlimited).
	BudgetSeconds float64
	// Seed keys round tie-break tokens and, offset per round, the
	// fine-tune schedule's sampling seeds.
	Seed int64
	// Workers bounds scoring, selection and fine-tune goroutines
	// (0 = parallel.Default()); results are bit-identical for any value.
	Workers int
	// Tune is the per-round fine-tune schedule (zero value = DefaultTune()).
	// Validation-based stopping and KeepBest are rejected: the loop holds
	// no validation split — carving one from the labeled set would spend
	// scarce labels on model selection.
	Tune train.BiasedConfig
	// Log, when non-nil, receives the JSONL round manifest ("manifest",
	// per-round "round", final "result" events). Observation only.
	Log *obs.EventLog
	// Tracer, when non-nil, records one trace tree per round —
	// score/select/label/tune stage spans plus batch accounting attributes.
	// Observation only: weights and selections are bit-identical with
	// tracing lit or dark. Nil is free.
	Tracer *trace.Tracer
}

// DefaultTune is the fine-tune schedule the CLI and the experiments use:
// one biased round at ε=0.1 of short MGD — warm-started each loop round,
// so the schedule is a fine-tune step, not a from-scratch run. No
// validation split (see Config.Tune).
func DefaultTune() train.BiasedConfig {
	return train.BiasedConfig{
		InitialEps: 0.1,
		DeltaEps:   0,
		Rounds:     1,
		Initial: train.MGDConfig{
			LearningRate:   0.01,
			DecayFactor:    0.5,
			DecayStep:      200,
			BatchSize:      8,
			MaxIters:       400,
			BalanceClasses: true,
			Seed:           11,
		},
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rounds <= 0 {
		return fmt.Errorf("active: need at least one round, got %d", c.Rounds)
	}
	if c.Batch <= 0 {
		return fmt.Errorf("active: batch must be positive, got %d", c.Batch)
	}
	if c.Candidates < 0 {
		return fmt.Errorf("active: negative candidate bound %d", c.Candidates)
	}
	switch c.Strategy {
	case "", StrategyHybrid, StrategyRandom:
	default:
		return fmt.Errorf("active: unknown strategy %q", c.Strategy)
	}
	if c.LabelSeconds < 0 || c.BudgetSeconds < 0 {
		return fmt.Errorf("active: negative label cost or budget")
	}
	tune := c.tune()
	if err := tune.Validate(); err != nil {
		return err
	}
	if tune.Initial.ValEvery != 0 || (tune.Rounds > 1 && tune.FineTune.ValEvery != 0) {
		return fmt.Errorf("active: fine-tune validation is not supported (the loop holds no validation split)")
	}
	if tune.KeepBest {
		return fmt.Errorf("active: KeepBest needs a validation split the loop does not hold")
	}
	return nil
}

// tune resolves the fine-tune schedule (zero value = DefaultTune).
func (c Config) tune() train.BiasedConfig {
	if c.Tune.Rounds == 0 {
		return DefaultTune()
	}
	return c.Tune
}

// strategy resolves the selection strategy name.
func (c Config) strategy() string {
	if c.Strategy == "" {
		return StrategyHybrid
	}
	return c.Strategy
}

// labelSeconds resolves the per-clip label cost.
func (c Config) labelSeconds() float64 {
	if c.LabelSeconds > 0 {
		return c.LabelSeconds
	}
	return litho.DefaultLabelCost()
}

// RoundReport records one loop round.
type RoundReport struct {
	// Round is the 0-based round index.
	Round int `json:"round"`
	// Scored is the unlabeled pool size scored this round.
	Scored int `json:"scored"`
	// Selected lists the selected pool indices in selection order; the
	// labeled prefix is Selected[:Labeled].
	Selected []int `json:"selected"`
	// Labeled counts the selected clips actually labeled before the
	// budget ran out.
	Labeled int `json:"labeled"`
	// Hotspots is the cumulative hotspot count over all labeled clips.
	Hotspots int `json:"hotspots"`
	// BudgetSpent and BudgetRemaining are the meter readings after the
	// round's labeling (BudgetRemaining is -1 for an unlimited budget).
	BudgetSpent     float64 `json:"budget_spent"`
	BudgetRemaining float64 `json:"budget_remaining"`
	// Truncated reports that the budget ran out mid-batch.
	Truncated bool `json:"truncated"`
	// Eval holds the held-out metrics after the round's fine-tune (zero
	// when the loop has no eval set, or when no clip could be labeled).
	Eval train.Metrics `json:"eval"`
}

// Loop is one active-learning run over a pool. Build with NewLoop, drive
// with Run; not safe for concurrent use.
type Loop struct {
	cfg     Config
	net     *nn.Network
	pool    *Pool
	label   Labeler
	evalSet []train.Sample

	ev     *train.Evaluator
	sel    *selector
	budget *litho.Budget

	unlabeled []int // pool indices, ascending at start, selection-pruned
	labeled   []train.Sample
	hotspots  int

	rounds   *obs.Counter
	selected *obs.Counter
	labeledC *obs.Counter

	scoreSum, selectSum, labelSum, tuneSum *obs.Summary // round stage summaries
}

// NewLoop validates the configuration and stages a run: net is fine-tuned
// in place (pass a freshly initialized network, or one restored via
// train.LoadWarmStart to resume). evalSet, when non-empty, is a held-out
// labeled set scored after every round for the reports; it never feeds
// training and is never charged against the budget.
func NewLoop(cfg Config, net *nn.Network, pool *Pool, label Labeler, evalSet []train.Sample) (*Loop, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pool == nil || len(pool.Clips) == 0 {
		return nil, fmt.Errorf("active: empty clip pool")
	}
	if len(pool.Tensors) != len(pool.Clips) {
		return nil, fmt.Errorf("active: pool has %d tensors for %d clips", len(pool.Tensors), len(pool.Clips))
	}
	if label == nil {
		return nil, fmt.Errorf("active: nil labeler")
	}
	ev, err := train.NewEvaluator(net, cfg.Workers)
	if err != nil {
		return nil, err
	}
	unlabeled := make([]int, len(pool.Clips))
	for i := range unlabeled {
		unlabeled[i] = i
	}
	reg := obs.Default()
	return &Loop{
		cfg:       cfg,
		net:       net,
		pool:      pool,
		label:     label,
		evalSet:   evalSet,
		ev:        ev,
		sel:       newSelector(parallel.New(cfg.Workers)),
		budget:    litho.NewBudget(cfg.BudgetSeconds),
		unlabeled: unlabeled,
		rounds:    reg.Counter("hsd_active_rounds_total"),
		selected:  reg.Counter("hsd_active_selected_total"),
		labeledC:  reg.Counter("hsd_active_labeled_total"),
		scoreSum:  reg.Stage("active/score"),
		selectSum: reg.Stage("active/select"),
		labelSum:  reg.Stage("active/label"),
		tuneSum:   reg.Stage("active/tune"),
	}, nil
}

// Budget exposes the loop's label-budget meter.
func (l *Loop) Budget() *litho.Budget { return l.budget }

// Labeled returns the labeled samples accumulated so far, in labeling
// order (the tensors alias the pool cache).
func (l *Loop) Labeled() []train.Sample { return l.labeled }

// remainingForReport renders the budget remainder for reports and JSONL:
// -1 for an unlimited budget (JSON has no +Inf).
func (l *Loop) remainingForReport() float64 {
	if l.cfg.BudgetSeconds <= 0 {
		return -1
	}
	return l.budget.Remaining()
}

// Run drives the loop: Rounds × (score → select → label → fine-tune),
// stopping early when the budget cannot cover a single clip of a round.
// The returned reports carry one entry per round run.
func (l *Loop) Run() ([]RoundReport, error) {
	cost := l.cfg.labelSeconds()
	l.emit("manifest", map[string]any{
		"tool":           "active",
		"pool":           len(l.pool.Clips),
		"eval":           len(l.evalSet),
		"rounds":         l.cfg.Rounds,
		"batch":          l.cfg.Batch,
		"candidates":     l.cfg.Candidates,
		"strategy":       l.cfg.strategy(),
		"label_seconds":  cost,
		"budget_seconds": l.cfg.BudgetSeconds,
		"seed":           l.cfg.Seed,
		"workers":        l.ev.Workers(),
	})
	reports := make([]RoundReport, 0, l.cfg.Rounds)
	for r := 0; r < l.cfg.Rounds; r++ {
		rep, err := l.round(r, cost)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
		l.rounds.Inc()
		l.emit("round", map[string]any{
			"round":             rep.Round,
			"scored":            rep.Scored,
			"selected":          rep.Selected,
			"labeled":           rep.Labeled,
			"hotspots":          rep.Hotspots,
			"budget_spent":      rep.BudgetSpent,
			"budget_remaining":  rep.BudgetRemaining,
			"truncated":         rep.Truncated,
			"eval_accuracy":     rep.Eval.Accuracy,
			"eval_recall":       rep.Eval.Recall,
			"eval_false_alarms": rep.Eval.FalseAlarms,
		})
		if rep.Truncated || len(l.unlabeled) == 0 {
			break
		}
	}
	l.emit("result", map[string]any{
		"rounds_run":       len(reports),
		"labeled_total":    len(l.labeled),
		"hotspots":         l.hotspots,
		"budget_spent":     l.budget.Spent(),
		"budget_remaining": l.remainingForReport(),
	})
	return reports, nil
}

// round wraps one runRound call in a per-round trace: the round trace is
// closed on every exit path, errored rounds keep the error message, and
// the accounting attributes mirror the RoundReport.
func (l *Loop) round(r int, cost float64) (RoundReport, error) {
	st := l.cfg.Tracer.Stage("active/round", nil)
	sp := st.Span()
	sp.SetInt("round", int64(r))
	rep, err := l.runRound(r, cost, sp)
	sp.SetInt("scored", int64(rep.Scored))
	sp.SetInt("selected", int64(len(rep.Selected)))
	sp.SetInt("labeled", int64(rep.Labeled))
	sp.SetBool("truncated", rep.Truncated)
	sp.SetFloat("budget_spent", rep.BudgetSpent)
	if err != nil {
		st.Trace().SetError(err.Error())
	}
	return rep, st.Done(err)
}

// runRound runs one score→select→label→tune round, timing each stage
// under the round's span rsp.
func (l *Loop) runRound(r int, cost float64, rsp *trace.Span) (RoundReport, error) {
	rep := RoundReport{Round: r, Scored: len(l.unlabeled)}

	// Score the unlabeled pool on the fused evaluator. StrategyRandom
	// skips scoring entirely — the baseline should not pay (or depend on)
	// inference it does not use.
	roundKey := mix64(uint64(l.cfg.Seed), uint64(r))
	var sel []int
	if l.cfg.strategy() == StrategyRandom {
		st := rsp.Stage("select", l.selectSum)
		sel = SelectRandom(l.unlabeled, l.cfg.Batch, roundKey)
		st.End()
	} else {
		st := rsp.Stage("score", l.scoreSum)
		xs := make([]*tensor.Tensor, len(l.unlabeled))
		for j, pi := range l.unlabeled {
			xs[j] = l.pool.Tensors[pi]
		}
		probs, err := l.ev.PredictProbs(xs)
		st.Span().SetInt("pool", int64(len(xs)))
		if st.Done(err) != nil {
			return rep, err
		}

		st = rsp.Stage("select", l.selectSum)
		sel, err = l.sel.selectHybrid(l.pool.Tensors, probs, l.unlabeled, l.cfg.Batch, l.cfg.Candidates, roundKey)
		if st.Done(err) != nil {
			return rep, err
		}
	}
	rep.Selected = sel
	l.selected.Add(int64(len(sel)))

	// Label in selection order, charging the budget per clip; stop at the
	// first clip the budget cannot cover. The charge-then-label order is
	// the accounting contract: an unaffordable clip costs nothing.
	st := rsp.Stage("label", l.labelSum)
	labeledNow := 0
	for _, pi := range sel {
		if !l.budget.TryCharge(cost) {
			rep.Truncated = true
			break
		}
		hot, err := l.label(pi, l.pool.Clips[pi])
		if err != nil {
			st.Abort()
			return rep, fmt.Errorf("active: labeling pool clip %d: %w", pi, err)
		}
		l.labeled = append(l.labeled, train.Sample{X: l.pool.Tensors[pi], Hotspot: hot})
		if hot {
			l.hotspots++
		}
		labeledNow++
	}
	st.Span().SetInt("clips", int64(labeledNow))
	st.End()
	rep.Labeled = labeledNow
	rep.Hotspots = l.hotspots
	rep.BudgetSpent = l.budget.Spent()
	rep.BudgetRemaining = l.remainingForReport()
	l.labeledC.Add(int64(labeledNow))

	// Remove the labeled prefix from the unlabeled pool, preserving order.
	if labeledNow > 0 {
		gone := make(map[int]bool, labeledNow)
		for _, pi := range sel[:labeledNow] {
			gone[pi] = true
		}
		kept := l.unlabeled[:0]
		for _, pi := range l.unlabeled {
			if !gone[pi] {
				kept = append(kept, pi)
			}
		}
		l.unlabeled = kept
	}
	if labeledNow == 0 {
		// Budget exhausted before the round labeled anything: no new
		// information, nothing to tune on.
		return rep, nil
	}

	// Fine-tune in place, warm-started from the current weights. Seeds
	// offset per loop round so each round draws fresh batches; balanced
	// sampling degrades deterministically to uniform until both classes
	// have been observed.
	st = rsp.Stage("tune", l.tuneSum)
	tune := l.cfg.tune()
	tune.Initial.Seed += int64(r)
	tune.FineTune.Seed += int64(r)
	if l.cfg.Workers != 0 {
		tune.Initial.Workers = l.cfg.Workers
		tune.FineTune.Workers = l.cfg.Workers
	}
	if tune.Initial.BalanceClasses && (l.hotspots == 0 || l.hotspots == len(l.labeled)) {
		tune.Initial.BalanceClasses = false
		tune.FineTune.BalanceClasses = false
	}
	_, err := train.BiasedLearning(l.net, l.labeled, nil, tune)
	st.Span().SetInt("samples", int64(len(l.labeled)))
	if st.Done(err) != nil {
		return rep, err
	}

	if len(l.evalSet) > 0 {
		m, err := l.ev.EvalSet(l.evalSet, 0)
		if err != nil {
			return rep, err
		}
		rep.Eval = m
	}
	return rep, nil
}

// emit writes one JSONL event when a log is configured (Emit is nil-safe,
// but the helper keeps call sites honest about observation-only intent).
func (l *Loop) emit(event string, fields map[string]any) {
	l.cfg.Log.Emit(event, fields)
}

// WeightChecksum returns the FNV-1a hash of every parameter's IEEE-754
// bits in parameter order — the fingerprint the parity gates compare
// across worker counts.
func WeightChecksum(net *nn.Network) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range net.Params() {
		for _, v := range p.W.Data() {
			bits := math.Float64bits(v)
			for shift := 0; shift < 64; shift += 8 {
				h ^= (bits >> shift) & 0xff
				h *= prime64
			}
		}
	}
	return h
}
