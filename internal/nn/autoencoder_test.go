package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestAutoencoderShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ae := NewAutoencoder(rng, 8, 16, 3)
	x := tensor.Randn(rng, 1, 5, 8)
	code := ae.Encode(x)
	if code.Dim(0) != 5 || code.Dim(1) != 3 {
		t.Fatalf("code shape %v", code.Shape())
	}
	recon := ae.Reconstruct(x)
	if recon.Dim(0) != 5 || recon.Dim(1) != 8 {
		t.Fatalf("recon shape %v", recon.Shape())
	}
}

func TestAutoencoderGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ae := NewAutoencoder(rng, 4, 6, 2)
	x := tensor.Randn(rng, 1, 3, 4)
	checkLayerGradients(t, ae, x, 1e-4)
}

func TestAutoencoderLearnsIdentityOnLowRankData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Rank-2 data in 6 dims: a 2-dim code suffices for near-perfect
	// reconstruction.
	n := 60
	x := tensor.New(n, 6)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		for j := 0; j < 6; j++ {
			x.Set(float64(a*float64(j+1)*0.2)+float64(b*float64(6-j)*0.2), i, j)
		}
	}
	ae := NewAutoencoder(rand.New(rand.NewSource(4)), 6, 12, 2)
	initial := MSE{}
	l0, _ := initial.Forward(ae.Reconstruct(x), x)
	final := TrainAutoencoder(ae, x, 500, 5e-3)
	if final > l0/20 {
		t.Fatalf("AE failed to learn rank-2 structure: %f -> %f", l0, final)
	}
}

func TestAutoencoderParamsCoverBothHalves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ae := NewAutoencoder(rng, 4, 8, 2)
	// enc1.W/b, enc2.W/b, dec1.W/b, dec2.W/b = 8 params.
	if len(ae.Params()) != 8 {
		t.Fatalf("param count %d", len(ae.Params()))
	}
}

func TestSaveLoadModelIncludesBNStats(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m1 := CovidNetMini(rng, 16, 3)
	// Train a little so running stats move off their init values.
	x := tensor.Randn(rng, 1, 6, 1, 16, 16)
	for i := range x.Data() {
		x.Data()[i] += 3
	}
	for i := 0; i < 5; i++ {
		m1.Forward(x, true)
	}
	blob, err := SaveModel(m1)
	if err != nil {
		t.Fatal(err)
	}
	m2 := CovidNetMini(rand.New(rand.NewSource(999)), 16, 3)
	if err := LoadModel(m2, blob); err != nil {
		t.Fatal(err)
	}
	// Eval-mode outputs must be bit-identical — this fails if running
	// stats are not checkpointed.
	o1 := m1.Forward(x, false)
	o2 := m2.Forward(x, false)
	if !tensor.AllClose(o1, o2, 0) {
		t.Fatal("restored model differs in eval mode (missing BN state?)")
	}
	// Structural mismatch must error.
	m3 := CovidNetMini(rng, 16, 4)
	if err := LoadModel(m3, blob); err == nil {
		t.Fatal("expected error on mismatched head")
	}
}

func TestStatesCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := ResNetMini(rng, 2, 4, 8, 2) // residual blocks with BN inside
	states := m.States()
	if len(states) == 0 {
		t.Fatal("ResNet must expose BN running stats")
	}
	// Each BN contributes 2 tensors: stem + 4 blocks × (2 BN [+1 proj BN]).
	if len(states)%2 != 0 {
		t.Fatalf("states come in mean/var pairs: %d", len(states))
	}
}
