package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// TestCheckpointLayoutV1 pins the exact bytes of a two-parameter model
// with Adam state, one parameter's moments present and one's absent. A
// change here is a format change: bump ckptVersion with it.
func TestCheckpointLayoutV1(t *testing.T) {
	d := NewDense(rand.New(rand.NewSource(1)), "d", 1, 1)
	d.W.Value.Data()[0], d.B.Value.Data()[0] = 1.5, -2
	m := NewSequential(d)
	adam := NewAdam()
	adam.t = 3
	st := adam.State()
	st.Reserve(m.Params(), 0, 2)
	st.slabs[0][0], st.slabs[1][0], st.has[0] = 0.25, 0.5, true
	want := "" +
		"4e4e434b50540d0a" + "01000000" + // magic "NNCKPT\r\n", version 1
		"0700000000000000" + // step 7
		"0400" + "6164616d" + // optimizer "adam"
		"0300000000000000" + // counter (Adam's t) 3
		"06000000" + // six sections:
		"0300" + "642e57" + "0100000000000000" + // d.W, 1 value
		"0300" + "642e62" + "0100000000000000" + // d.b, 1 value
		"0500" + "642e572f6d" + "0100000000000000" + // d.W/m, 1 value
		"0500" + "642e572f76" + "0100000000000000" + // d.W/v, 1 value
		"0500" + "642e622f6d" + "0000000000000000" + // d.b/m, absent
		"0500" + "642e622f76" + "0000000000000000" + // d.b/v, absent
		"000000000000f83f" + "00000000000000c0" + // d.W = 1.5, d.b = -2
		"000000000000d03f" + "000000000000e03f" + // d.W/m = 0.25, d.W/v = 0.5
		"19803092" // CRC-32C
	if got := hex.EncodeToString(EncodeCheckpoint(m, adam, 7)); got != want {
		t.Fatalf("checkpoint bytes\n got %s\nwant %s", got, want)
	}
}

// ckptFixture is a model and optimizer a checkpoint is written from or
// loaded into.
type ckptFixture struct {
	m   *Sequential
	opt StatefulOptimizer
}

// ckptFixtures builds MLP+SGD, ResNetMini+SGD with weight decay (batch-norm
// statistics) and the GRU imputer+Adam, each trained for steps steps on
// seeded data so that values, statistics, buffers and counters move.
func ckptFixtures(seed int64, steps int) []ckptFixture {
	rng := rand.New(rand.NewSource(seed))
	fx := []struct {
		m   *Sequential
		opt StatefulOptimizer
		x   []int
	}{
		{MLP(rng, 4, 8, 2), NewSGD(0.9, 0), []int{3, 4}},
		{ResNetMini(rng, 2, 2, 4, 2), NewSGD(0.9, 1e-4), []int{3, 2, 8, 8}},
		{GRUImputer(rng, 3), NewAdam(), []int{2, 5, 3}},
	}
	out := make([]ckptFixture, len(fx))
	for i, f := range fx {
		for s := 0; s < steps; s++ {
			f.m.ZeroGrads()
			y := f.m.Forward(tensor.Randn(rng, 1, f.x...), true)
			f.m.Backward(tensor.Randn(rng, 1, y.Shape()...))
			f.opt.Step(f.m.Params(), 0.05)
		}
		out[i] = ckptFixture{f.m, f.opt}
	}
	return out
}

// withoutSection returns blob with the named section emptied: its count
// set to 0 and its values cut out, resealed. It builds the blobs that no
// optimizer writes, such as Adam's m without its v.
func withoutSection(blob []byte, name string) []byte {
	_, _, off, _ := entry(blob, len(ckptMagic)+12)
	nsec := int(le.Uint32(blob[off:]))
	off += 4
	countAt, before, n := 0, 0, 0
	for i := 0; i < nsec; i++ {
		got, c, next, _ := entry(blob, off)
		if string(got) == name {
			countAt, n = next-8, int(c)
		} else if countAt == 0 {
			before += int(c)
		}
		off = next
	}
	out := slices.Clone(blob)
	le.PutUint64(out[countAt:], 0)
	cut := off + 8*before
	return reseal(append(out[:cut], out[cut+8*n:]...))
}

// reseal returns a copy of b with its CRC trailer recomputed, so that a
// mutation reaches the header and table checks behind the CRC.
func reseal(b []byte) []byte {
	out := slices.Clone(b)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// FuzzLoadCheckpoint feeds arbitrary bytes, and the same bytes with a
// valid CRC, to every fixture with and without its optimizer. Decoding
// never panics and never allocates more than a fixed amount whatever the
// blob claims; after an error the model and optimizer are bitwise
// unchanged; after a success, re-encoding gives the input bytes back.
func FuzzLoadCheckpoint(f *testing.F) {
	for i, steps := range []int{2, 0} {
		for _, fx := range ckptFixtures(int64(i+1), steps) {
			blob := EncodeCheckpoint(fx.m, fx.opt, steps)
			f.Add(blob)
			model, _ := SaveModel(fx.m)
			f.Add(model)
			f.Add(blob[:len(blob)/2])
			f.Add(reseal(blob[:len(blob)-8]))
			for _, at := range []int{9, 40, len(blob) / 2, len(blob) - 13} {
				flipped := slices.Clone(blob)
				flipped[at] ^= 0x10
				f.Add(flipped)
				f.Add(reseal(flipped))
			}
		}
	}
	dsts := ckptFixtures(3, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, reseal(data))
		}
		for _, in := range inputs {
			for _, d := range dsts {
				checkLoad(t, in, d.m, d.opt, d.opt)
				checkLoad(t, in, d.m, d.opt, nil)
			}
		}
	})
}

// checkLoad decodes in against m and opt (the fixture's optimizer is full)
// and checks FuzzLoadCheckpoint's properties.
func checkLoad(t *testing.T, in []byte, m *Sequential, full, opt StatefulOptimizer) {
	t.Helper()
	before := EncodeCheckpoint(m, full, 0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	c, err := DecodeCheckpoint(in, m, opt)
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - alloc; grew > 64<<10 {
		t.Fatalf("decoding a %d-byte blob allocated %d bytes", len(in), grew)
	}
	if err != nil {
		if !bytes.Equal(before, EncodeCheckpoint(m, full, 0)) {
			t.Fatalf("failed decode (%v) changed the model or optimizer", err)
		}
		return
	}
	c.Apply()
	if !bytes.Equal(EncodeCheckpoint(m, opt, c.Step), in) {
		t.Fatal("re-encoding a loaded checkpoint changed its bytes")
	}
}
