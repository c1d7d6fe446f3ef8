package nn

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// bnModel is a ResNetMini whose batch-norm running statistics have moved
// off their initial values.
func bnModel(seed int64, width int) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	m := ResNetMini(rng, 2, 2, width, 1)
	m.Forward(tensor.Randn(rng, 1, 3, 2, 6, 6), true)
	return m
}

// TestValidateModelBlob: a model-only blob passes DecodeCheckpoint's
// checks against its own model and fails them against a structurally
// different model or junk bytes.
func TestValidateModelBlob(t *testing.T) {
	m := MLP(rand.New(rand.NewSource(1)), 4, 8, 2)
	blob, err := SaveModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(blob, m, nil); err != nil {
		t.Fatalf("blob should validate against its own model: %v", err)
	}
	other := MLP(rand.New(rand.NewSource(1)), 4, 16, 2)
	if _, err := DecodeCheckpoint(blob, other, nil); err == nil {
		t.Fatal("blob validated against a structurally different model")
	}
	if _, err := DecodeCheckpoint([]byte("junk"), m, nil); err == nil {
		t.Fatal("garbage blob validated")
	}
}

// TestLoadModelAtomicOnMismatch: LoadModel rejects every blob that does
// not match the destination — another model, junk bytes, a trainer
// checkpoint, a truncated or bit-flipped blob — and leaves the model
// bitwise untouched; the blob still loads into a model of its own shape.
func TestLoadModelAtomicOnMismatch(t *testing.T) {
	src := bnModel(2, 4)
	blob, err := SaveModel(src)
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(blob)
	flipped[len(flipped)/2] ^= 1
	for _, tc := range []struct {
		name string
		dst  *Sequential
		blob []byte
	}{
		{"wider model", bnModel(3, 8), blob},
		{"mlp", MLP(rand.New(rand.NewSource(3)), 4, 16, 2), blob},
		{"junk", bnModel(3, 4), []byte("junk")},
		{"trainer checkpoint", bnModel(3, 4), EncodeCheckpoint(src, NewSGD(0.9, 0), 3)},
		{"truncated", bnModel(3, 4), blob[:len(blob)-9]},
		{"bit flip", bnModel(3, 4), flipped},
	} {
		before := EncodeCheckpoint(tc.dst, nil, 0)
		if err := LoadModel(tc.dst, tc.blob); err == nil {
			t.Errorf("%s: LoadModel accepted the blob", tc.name)
			continue
		}
		if !bytes.Equal(before, EncodeCheckpoint(tc.dst, nil, 0)) {
			t.Errorf("%s: failed LoadModel changed the model", tc.name)
		}
	}
	dst := bnModel(3, 4)
	if err := LoadModel(dst, blob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeCheckpoint(dst, nil, 0), blob) {
		t.Fatal("LoadModel did not restore values and running statistics")
	}
}
