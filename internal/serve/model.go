package serve

import (
	"fmt"
	"os"

	"hotspot/internal/nn"
	"hotspot/internal/train"
)

// model is one immutable serving generation: a network plus the evaluator
// whose fused engines fan its inference across the worker pool. A reload
// builds a complete new model and swaps the Server's atomic pointer;
// batches in flight finish on the generation they started with, and the
// evaluator's single-owner contract holds because only the batcher's flush
// loop ever runs one.
type model struct {
	net        *nn.Network
	ev         *train.Evaluator
	origin     string // checkpoint path or a description like "untrained"
	generation int    // monotonically increasing swap counter
}

// ModelInfo describes the currently served model.
type ModelInfo struct {
	// Origin is the checkpoint path the model came from (or a description
	// for models installed programmatically).
	Origin string `json:"origin"`
	// Generation counts model swaps since startup, starting at 1.
	Generation int `json:"generation"`
	// Params is the network's parameter count.
	Params int `json:"params"`
}

// LoadNetwork validates net against the server's feature configuration,
// compiles its fused inference engines and installs it as the serving
// model, clearing the clip cache (cached probabilities are artifacts of
// the previous weights). A network that does not compile, or whose head
// does not emit the two class logits, is rejected and the previous model
// keeps serving. origin is recorded for /admin/reload responses and logs.
func (s *Server) LoadNetwork(net *nn.Network, origin string) error {
	f := s.cfg.Feature
	ev, err := train.NewEvaluator(net, s.cfg.Workers)
	if err != nil {
		return err
	}
	if err := ev.Prepare([]int{f.K, f.Blocks, f.Blocks}); err != nil {
		return fmt.Errorf("serve: network incompatible with %d×%d×%d feature tensors: %w",
			f.K, f.Blocks, f.Blocks, err)
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	gen := 1
	if cur := s.model.Load(); cur != nil {
		gen = cur.generation + 1
	}
	s.model.Store(&model{net: net, ev: ev, origin: origin, generation: gen})
	s.cache.clear()
	// Re-register build info for the new generation so every scrape names
	// the model it was taken against (the superseded generation's series
	// drops to 0). Serialized by reloadMu.
	s.metrics.buildInfo(gen)
	return nil
}

// LoadCheckpoint reads a checkpoint written by nn.Save (or hsd-train) and
// installs it. The versioned header means a truncated, corrupt, or
// wrong-version file is rejected here — with the old model left serving —
// rather than poisoning the running server.
func (s *Server) LoadCheckpoint(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("serve: open checkpoint: %w", err)
	}
	net, err := nn.Load(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := s.LoadNetwork(net, path); err != nil {
		return err
	}
	s.reloadMu.Lock()
	s.lastPath = path
	s.reloadMu.Unlock()
	return nil
}

// Model returns information about the currently served model; ok is false
// before the first successful load.
func (s *Server) Model() (ModelInfo, bool) {
	m := s.model.Load()
	if m == nil {
		return ModelInfo{}, false
	}
	return ModelInfo{
		Origin:     m.origin,
		Generation: m.generation,
		Params:     m.net.ParamCount(),
	}, true
}
