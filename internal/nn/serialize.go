package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

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
// or ends mid-payload is rejected with an error saying exactly that; a
// layer whose geometry does not match its weights fails with
// ErrCheckpointGeometry, and a NaN or infinite weight with
// ErrNonFiniteWeight.
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
	layers := make([]Layer, len(spec.Layers))
	for i, ls := range spec.Layers {
		l, err := ls.layer(i)
		if err != nil {
			return nil, err
		}
		layers[i] = l
	}
	return NewNetwork(layers...), nil
}

// Errors Load returns for a checkpoint that decodes but cannot be a
// network. Both are wrapped with the layer, and the parameter and index
// where there is one.
var (
	// ErrCheckpointGeometry: a layer's declared geometry is invalid (a
	// dropout rate outside [0, 1), NaN included, counts as geometry), or
	// its weight payload does not have exactly the shapes and lengths the
	// geometry declares.
	ErrCheckpointGeometry = errors.New("nn: checkpoint layer geometry does not match its weights")
	// ErrNonFiniteWeight: a weight is NaN or ±Inf.
	ErrNonFiniteWeight = errors.New("nn: non-finite checkpoint weight")
)

// layer rebuilds layer i from its spec. Every size the geometry declares
// is checked against the decoded payload, with overflow-checked products,
// before anything that size is allocated, so a small file cannot declare a
// huge layer; the weights are then the payload itself, with no
// initialization draws and no copy.
func (s layerSpec) layer(i int) (Layer, error) {
	switch s.Kind {
	case "conv":
		fanIn, ok := convFanIn(s.InC, s.OutC, s.K, s.Stride, s.Pad)
		if !ok {
			return nil, fmt.Errorf("%w: layer %d (%s): conv inC=%d outC=%d k=%d stride=%d pad=%d",
				ErrCheckpointGeometry, i, s.Name, s.InC, s.OutC, s.K, s.Stride, s.Pad)
		}
		ws, err := s.params(i, [][]int{{s.OutC, fanIn}, {s.OutC}})
		if err != nil {
			return nil, err
		}
		return newConv2D(s.Name, s.InC, s.OutC, s.K, s.Stride, s.Pad, ws[0], ws[1]), nil
	case "dense":
		ws, err := s.params(i, [][]int{{s.Out, s.In}, {s.Out}})
		if err != nil {
			return nil, err
		}
		return newDense(s.Name, s.In, s.Out, ws[0], ws[1]), nil
	case "relu":
		return s.paramless(i, NewReLU(s.Name))
	case "maxpool":
		return s.paramless(i, NewMaxPool2(s.Name))
	case "dropout":
		d, err := NewDropout(s.Name, s.Rate, s.Seed)
		if err != nil {
			return nil, fmt.Errorf("%w: layer %d (%s): dropout rate %v outside [0, 1)",
				ErrCheckpointGeometry, i, s.Name, s.Rate)
		}
		return s.paramless(i, d)
	}
	return nil, fmt.Errorf("nn: unknown layer kind %q at %d", s.Kind, i)
}

// paramless returns l, layer i rebuilt without parameters, once the spec
// is checked to carry no weight payload.
func (s layerSpec) paramless(i int, l Layer) (Layer, error) {
	if _, err := s.params(i, nil); err != nil {
		return nil, err
	}
	return l, nil
}

// params wraps layer i's weight payloads as tensors of the given shapes,
// after checking that each payload has exactly that shape and length and
// holds only finite values.
func (s layerSpec) params(i int, shapes [][]int) ([]*tensor.Tensor, error) {
	if len(s.Weights) != len(shapes) || len(s.Shapes) != len(shapes) {
		return nil, fmt.Errorf("%w: layer %d (%s): %d weight payloads and %d shapes, want %d",
			ErrCheckpointGeometry, i, s.Name, len(s.Weights), len(s.Shapes), len(shapes))
	}
	ws := make([]*tensor.Tensor, len(shapes))
	for j, want := range shapes {
		name := s.Name + [...]string{".w", ".b"}[j]
		n, ok := checkedProduct(want...)
		if !ok {
			return nil, fmt.Errorf("%w: layer %d (%s): param %s shape %v is empty or overflows",
				ErrCheckpointGeometry, i, s.Name, name, want)
		}
		if !slices.Equal(s.Shapes[j], want) || len(s.Weights[j]) != n {
			return nil, fmt.Errorf("%w: layer %d (%s): param %s has shape %v and %d weights, geometry declares %v",
				ErrCheckpointGeometry, i, s.Name, name, s.Shapes[j], len(s.Weights[j]), want)
		}
		for k, v := range s.Weights[j] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%w: layer %d (%s): param %s index %d is %v",
					ErrNonFiniteWeight, i, s.Name, name, k, v)
			}
		}
		ws[j] = tensor.MustFromSlice(s.Weights[j], want...)
	}
	return ws, nil
}

// checkedProduct returns the product of dims when every one is positive
// and the product fits in an int.
func checkedProduct(dims ...int) (int, bool) {
	p := 1
	for _, d := range dims {
		if d <= 0 || p > math.MaxInt/d {
			return 0, false
		}
		p *= d
	}
	return p, true
}

// Clone deep-copies the network's architecture and weights, with the
// result of a Save/Load round trip: layer caches and gradients start
// empty, and every dropout stream restarts at the seed a checkpoint
// carries. It copies the layers directly rather than encoding, decoding
// and re-initializing every weight.
func (n *Network) Clone() (*Network, error) {
	return n.derive(func(p *Param) *Param { return newParam(p.Name, p.W.Clone()) }, false)
}

// derive builds a network with n's architecture: param makes each of its
// parameters from n's, storeGrads is set on its Conv2D and Dense layers,
// layer buffers start empty and every dropout stream restarts at the seed
// a checkpoint carries.
func (n *Network) derive(param func(*Param) *Param, storeGrads bool) (*Network, error) {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		switch t := l.(type) {
		case *Conv2D:
			layers[i] = &Conv2D{
				name: t.name, inC: t.inC, outC: t.outC, kh: t.kh, kw: t.kw, stride: t.stride, pad: t.pad,
				weight: param(t.weight), bias: param(t.bias), storeGrads: storeGrads,
			}
		case *ReLU:
			layers[i] = NewReLU(t.name)
		case *MaxPool2:
			layers[i] = NewMaxPool2(t.name)
		case *Dense:
			layers[i] = &Dense{name: t.name, in: t.in, out: t.out,
				weight: param(t.weight), bias: param(t.bias), storeGrads: storeGrads}
		case *Dropout:
			layers[i] = &Dropout{name: t.name, rate: t.rate, state: savedDropoutSeed}
		default:
			return nil, fmt.Errorf("nn: cannot copy layer %T (%s)", l, l.Name())
		}
	}
	return NewNetwork(layers...), nil
}
