package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"hotspot/internal/tensor"
)

// layerSpec is the gob wire form of one layer.
type layerSpec struct {
	Kind string // "conv", "relu", "maxpool", "dense", "dropout"
	Name string
	// Conv fields.
	InC, OutC, K, Stride, Pad int
	// Dense fields.
	In, Out int
	// Dropout fields.
	Rate float64
	Seed int64
	// Parameter payloads in Params() order.
	Weights [][]float64
	Shapes  [][]int
}

type netSpec struct {
	Version int
	Layers  []layerSpec
}

// Checkpoint framing: every file written by Save starts with an 8-byte
// header — a 6-byte magic string identifying the format, followed by the
// format version as a big-endian uint16 — before the gob payload. The
// header lets Load reject not-a-checkpoint and wrong-version files with a
// precise error instead of surfacing a raw gob decode failure, which is
// what a long-running server's hot-reload path needs to refuse bad files
// safely.
const (
	checkpointMagic   = "HSDNET"
	checkpointVersion = 1
	headerLen         = len(checkpointMagic) + 2
)

// savedDropoutSeed is the mask-stream seed every dropout layer of a
// checkpoint (and of a Clone) starts from; training reseeds the streams
// per sample anyway.
const savedDropoutSeed = 1

// Save serializes the network (architecture and weights): the versioned
// checkpoint header followed by an encoding/gob payload.
func (n *Network) Save(w io.Writer) error {
	var hdr [headerLen]byte
	copy(hdr[:], checkpointMagic)
	hdr[len(checkpointMagic)] = byte(checkpointVersion >> 8)
	hdr[len(checkpointMagic)+1] = byte(checkpointVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("nn: write checkpoint header: %w", err)
	}
	spec := netSpec{Version: 1}
	for _, l := range n.layers {
		var s layerSpec
		s.Name = l.Name()
		switch t := l.(type) {
		case *Conv2D:
			s.Kind = "conv"
			s.InC, s.OutC, s.K, s.Stride, s.Pad = t.inC, t.outC, t.kh, t.stride, t.pad
		case *ReLU:
			s.Kind = "relu"
		case *MaxPool2:
			s.Kind = "maxpool"
		case *Dense:
			s.Kind = "dense"
			s.In, s.Out = t.in, t.out
		case *Dropout:
			s.Kind = "dropout"
			s.Rate = t.rate
			s.Seed = savedDropoutSeed
		default:
			return fmt.Errorf("nn: cannot serialize layer %T (%s)", l, l.Name())
		}
		for _, p := range l.Params() {
			s.Weights = append(s.Weights, append([]float64(nil), p.W.Data()...))
			s.Shapes = append(s.Shapes, p.W.Shape())
		}
		spec.Layers = append(spec.Layers, s)
	}
	return gob.NewEncoder(w).Encode(spec)
}

// Load deserializes a network written by Save. A stream that does not
// start with the checkpoint magic, carries an unsupported format version,
// or ends mid-payload is rejected with an error saying exactly that.
func Load(r io.Reader) (*Network, error) {
	var hdr [headerLen]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("nn: truncated checkpoint: %d-byte header, want %d (%w)", n, headerLen, err)
	}
	if string(hdr[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("nn: not a network checkpoint (magic %q, want %q)", hdr[:len(checkpointMagic)], checkpointMagic)
	}
	version := int(hdr[len(checkpointMagic)])<<8 | int(hdr[len(checkpointMagic)+1])
	if version != checkpointVersion {
		return nil, fmt.Errorf("nn: checkpoint format version %d; this build reads version %d", version, checkpointVersion)
	}
	var spec netSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("nn: truncated checkpoint payload: %w", err)
		}
		return nil, fmt.Errorf("nn: decode network: %w", err)
	}
	if spec.Version != 1 {
		return nil, fmt.Errorf("nn: unsupported network version %d", spec.Version)
	}
	rng := rand.New(rand.NewSource(0))
	var layers []Layer
	for i, s := range spec.Layers {
		var l Layer
		var err error
		switch s.Kind {
		case "conv":
			l, err = NewConv2D(s.Name, s.InC, s.OutC, s.K, s.Stride, s.Pad, rng)
		case "relu":
			l = NewReLU(s.Name)
		case "maxpool":
			l = NewMaxPool2(s.Name)
		case "dense":
			l, err = NewDense(s.Name, s.In, s.Out, rng)
		case "dropout":
			l, err = NewDropout(s.Name, s.Rate, s.Seed)
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %q at %d", s.Kind, i)
		}
		if err != nil {
			return nil, fmt.Errorf("nn: rebuild layer %d (%s): %w", i, s.Name, err)
		}
		params := l.Params()
		if len(params) != len(s.Weights) {
			return nil, fmt.Errorf("nn: layer %s expects %d params, spec has %d", s.Name, len(params), len(s.Weights))
		}
		for j, p := range params {
			w, err := tensor.FromSlice(append([]float64(nil), s.Weights[j]...), s.Shapes[j]...)
			if err != nil {
				return nil, fmt.Errorf("nn: layer %s param %d: %w", s.Name, j, err)
			}
			if !tensor.SameShape(p.W, w) {
				return nil, fmt.Errorf("nn: layer %s param %d shape %v, want %v", s.Name, j, w.Shape(), p.W.Shape())
			}
			copy(p.W.Data(), w.Data())
		}
		layers = append(layers, l)
	}
	return NewNetwork(layers...), nil
}

// Clone deep-copies the network's architecture and weights, with the
// result of a Save/Load round trip: layer caches and gradients start
// empty, and every dropout stream restarts at the seed a checkpoint
// carries. It copies the layers directly rather than encoding, decoding
// and re-initializing every weight.
func (n *Network) Clone() (*Network, error) {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		switch t := l.(type) {
		case *Conv2D:
			layers[i] = &Conv2D{
				name: t.name, inC: t.inC, outC: t.outC, kh: t.kh, kw: t.kw, stride: t.stride, pad: t.pad,
				weight: t.weight.clone(), bias: t.bias.clone(),
			}
		case *ReLU:
			layers[i] = NewReLU(t.name)
		case *MaxPool2:
			layers[i] = NewMaxPool2(t.name)
		case *Dense:
			layers[i] = &Dense{name: t.name, in: t.in, out: t.out, weight: t.weight.clone(), bias: t.bias.clone()}
		case *Dropout:
			layers[i] = &Dropout{name: t.name, rate: t.rate, state: savedDropoutSeed}
		default:
			return nil, fmt.Errorf("nn: cannot clone layer %T (%s)", l, l.Name())
		}
	}
	return NewNetwork(layers...), nil
}

// clone copies the parameter's name and weights, with a zero gradient.
func (p *Param) clone() *Param {
	return &Param{Name: p.Name, W: p.W.Clone(), Grad: tensor.New(p.W.Shape()...)}
}
