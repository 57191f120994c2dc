package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hotspot/internal/active"
	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/layout"
	"hotspot/internal/litho"
	"hotspot/internal/nn"
	"hotspot/internal/parallel"
	"hotspot/internal/train"
)

// ActiveCurveConfig parameterizes the accuracy-vs-label-budget experiment:
// the hybrid uncertainty + k-center strategy against the random-sampling
// baseline over one shared pool, at several labeling budgets.
type ActiveCurveConfig struct {
	// Style names the layout style of the shared pool (default ICCAD).
	Style string
	// Pool and Eval size the unlabeled pool and the held-out eval set
	// (defaults 60 and 40). Eval labels are free: only pool labeling is
	// charged against the budgets.
	Pool, Eval int
	// Batch is the per-round selection size (default 8).
	Batch int
	// Budgets lists the labeling budgets (simulated ODST seconds) swept,
	// ascending (default 100, 200, 400 — 10, 20 and 40 labels at the
	// paper's 10 s/clip).
	Budgets []float64
	// Iters is the per-round fine-tune MGD iteration budget (default 200).
	Iters int
	// Seed drives pool generation, selection tie-breaking and fine-tune
	// sampling; both strategies share it.
	Seed int64
	// Workers bounds generation, scoring, selection and tuning goroutines
	// (0 = parallel.Default()); the curve is identical for any value.
	Workers int
}

func (c ActiveCurveConfig) normalize() ActiveCurveConfig {
	if c.Style == "" {
		c.Style = "ICCAD"
	}
	if c.Pool <= 0 {
		c.Pool = 60
	}
	if c.Eval <= 0 {
		c.Eval = 40
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if len(c.Budgets) == 0 {
		c.Budgets = []float64{100, 200, 400}
	}
	if c.Iters <= 0 {
		c.Iters = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ActivePoint is one budget level of the curve: the metrics both
// strategies reach when the budget runs dry, at equal label spend.
type ActivePoint struct {
	// BudgetSeconds is the labeling budget of this point.
	BudgetSeconds float64
	// Labels is the number of clips either strategy could afford.
	Labels int
	// Active and Random are the held-out metrics of the hybrid strategy
	// and the random baseline at this budget.
	Active train.Metrics
	Random train.Metrics
}

// ActiveResult is the full accuracy-vs-label-budget sweep.
type ActiveResult struct {
	Style      string
	Pool, Eval int
	Batch      int
	Points     []ActivePoint
}

// ActiveCurve runs the sweep: one shared pool and eval set, pre-labeled
// once through the litho oracle, then per (strategy, budget) a fresh
// detector driven by the active loop until the budget is exhausted. Both
// strategies see identical pools, seeds and fine-tune schedules, so every
// difference in the curve is the selection policy.
func ActiveCurve(cfg ActiveCurveConfig) (*ActiveResult, string, error) {
	cfg = cfg.normalize()
	style, err := layout.StyleByName(cfg.Style)
	if err != nil {
		return nil, "", err
	}
	fcfg := feature.DefaultTensorConfig()

	// Generate pool and eval clips from disjoint index-keyed streams and
	// label everything once up front — the loop's labeler then reads the
	// cached truth, so the sweep charges litho once per clip, not once per
	// (strategy, budget) run.
	clips := make([]geom.Clip, cfg.Pool+cfg.Eval)
	for i := range clips {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9e3779b9))
		clips[i] = layout.Generate(style, rng)
	}
	labeler, err := layout.NewLabeler(style, litho.DefaultConfig())
	if err != nil {
		return nil, "", err
	}
	truth, err := parallel.Map(parallel.New(cfg.Workers), len(clips), func(_, i int) (bool, error) {
		rep, err := labeler.Label(clips[i])
		if err != nil {
			return false, err
		}
		return rep.Hotspot, nil
	})
	if err != nil {
		return nil, "", err
	}
	core := style.CoreRect()
	pool, err := active.NewPool(clips[:cfg.Pool], core, fcfg, cfg.Workers)
	if err != nil {
		return nil, "", err
	}
	evalT, err := feature.ExtractTensors(clips[cfg.Pool:], core, fcfg, cfg.Workers)
	if err != nil {
		return nil, "", err
	}
	evalSet := make([]train.Sample, cfg.Eval)
	for i := range evalSet {
		evalSet[i] = train.Sample{X: evalT[i], Hotspot: truth[cfg.Pool+i]}
	}

	res := &ActiveResult{Style: style.Name, Pool: cfg.Pool, Eval: cfg.Eval, Batch: cfg.Batch}
	for _, budget := range cfg.Budgets {
		point := ActivePoint{BudgetSeconds: budget}
		point.Labels = int(budget / litho.DefaultLabelCost())
		for _, strategy := range []string{active.StrategyHybrid, active.StrategyRandom} {
			m, err := runActiveArm(cfg, fcfg, pool, truth, evalSet, strategy, budget)
			if err != nil {
				return nil, "", err
			}
			if strategy == active.StrategyHybrid {
				point.Active = m
			} else {
				point.Random = m
			}
		}
		res.Points = append(res.Points, point)
	}
	return res, FormatActiveCurve(res), nil
}

// runActiveArm drives one (strategy, budget) loop on a fresh detector and
// returns the held-out metrics at budget exhaustion.
func runActiveArm(cfg ActiveCurveConfig, fcfg feature.TensorConfig, pool *active.Pool, truth []bool, evalSet []train.Sample, strategy string, budget float64) (train.Metrics, error) {
	ncfg := nn.DefaultPaperNetConfig()
	ncfg.InChannels = fcfg.K
	ncfg.SpatialSize = fcfg.Blocks
	ncfg.Seed = cfg.Seed + 32
	net, err := nn.NewPaperNet(ncfg)
	if err != nil {
		return train.Metrics{}, err
	}
	tune := active.DefaultTune()
	tune.Initial.MaxIters = cfg.Iters
	tune.Initial.DecayStep = max(1, cfg.Iters/2)
	cost := litho.DefaultLabelCost()
	// Enough rounds to drain the budget even when late batches truncate.
	rounds := int(math.Ceil(budget/(cost*float64(cfg.Batch)))) + 1
	loop, err := active.NewLoop(active.Config{
		Rounds:        rounds,
		Batch:         cfg.Batch,
		Strategy:      strategy,
		BudgetSeconds: budget,
		Seed:          cfg.Seed,
		Workers:       cfg.Workers,
		Tune:          tune,
	}, net, pool, func(i int, _ geom.Clip) (bool, error) {
		return truth[i], nil
	}, evalSet)
	if err != nil {
		return train.Metrics{}, err
	}
	reports, err := loop.Run()
	if err != nil {
		return train.Metrics{}, err
	}
	// The last round that labeled anything carries the final metrics (a
	// truncated round that labeled zero clips never tuned or evaluated).
	var m train.Metrics
	for _, rep := range reports {
		if rep.Labeled > 0 {
			m = rep.Eval
		}
	}
	return m, nil
}

// FormatActiveCurve renders the sweep as the EXPERIMENTS.md table.
func FormatActiveCurve(r *ActiveResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "accuracy vs label budget — %s, pool %d, eval %d, batch %d\n",
		r.Style, r.Pool, r.Eval, r.Batch)
	fmt.Fprintf(&b, "%-10s  %-7s  %-17s  %-17s\n", "budget(s)", "labels", "active acc/recall", "random acc/recall")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10.0f  %-7d  %6.1f%% / %5.1f%%  %6.1f%% / %5.1f%%\n",
			p.BudgetSeconds, p.Labels,
			100*p.Active.Accuracy, 100*p.Active.Recall,
			100*p.Random.Accuracy, 100*p.Random.Recall)
	}
	return b.String()
}
