package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// evalDigestWant is the SHA-256 of evalDigest's eval-mode outputs as the
// layers computed them while eval forwards still kept backward caches:
// keeping none must not move a single output bit.
const evalDigestWant = "2412ce71a9c15379342451a43de2f345cd3f4f978bcee1641ada8678dfd1f66a"

// evalModels builds the three inference models the serving paths run,
// each with an input batch. Batch-norm scales, shifts and running
// statistics are drawn away from their identity defaults, so the eval
// normalisation is exercised in full.
func evalModels() (models []*Sequential, inputs []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(40))
	models = []*Sequential{
		CovidNetMini(rng, 20, 3),
		ResNetMini(rng, 3, 5, 8, 2),
		MLP(rng, 24, 32, 16, 4),
	}
	inputs = []*tensor.Tensor{
		tensor.RandUniform(rng, -1, 1, 3, 1, 20, 20),
		tensor.RandUniform(rng, -1, 1, 2, 3, 12, 12),
		tensor.RandUniform(rng, -1, 1, 5, 24),
	}
	for _, m := range models {
		for _, p := range m.Params() {
			if strings.HasSuffix(p.Name, ".gamma") || strings.HasSuffix(p.Name, ".beta") {
				for i := range p.Value.Data() {
					p.Value.Data()[i] = float64(rng.Float64()*1.5) - 0.5
				}
			}
		}
		for i, s := range m.States() {
			lo := 0.5 * float64(i%2) // running variances stay positive
			for j := range s.Data() {
				s.Data()[j] = float64(lo) + float64(rng.Float64())
			}
		}
	}
	return models, inputs
}

// evalDigest hashes every bit of the three models' eval outputs, each
// taken twice through one workspace: the second pass gets back the dirty
// storage of the first, so an element a layer fails to write shows up.
func evalDigest() string {
	models, inputs := evalModels()
	sum := sha256.New()
	for i, m := range models {
		ws := tensor.NewWorkspace()
		m.SetWorkspace(ws)
		for pass := 0; pass < 2; pass++ {
			ws.ReleaseAll()
			binary.Write(sum, binary.LittleEndian, m.Forward(inputs[i], false).Data())
		}
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

func TestEvalForwardDigest(t *testing.T) {
	if got := evalDigest(); got != evalDigestWant {
		t.Fatalf("eval-forward digest %s, want %s", got, evalDigestWant)
	}
}

// TestEvalForwardDigestNoAVX re-runs the digest in a child process started
// with MSA_NO_AVX=1, so the pure-Go kernels must give the same bits.
func TestEvalForwardDigestNoAVX(t *testing.T) {
	requireNoAVXDigest(t, "TestEvalForwardDigestNoAVX", evalDigest, evalDigestWant)
}

// requireNoAVXDigest runs the named test again in a child process started
// with MSA_NO_AVX=1; the child prints digest() and the parent checks it
// against want.
func requireNoAVXDigest(t *testing.T, name string, digest func() string, want string) {
	t.Helper()
	const childEnv = "NN_DIGEST_CHILD"
	if os.Getenv(childEnv) != "" {
		fmt.Println("digest:" + digest())
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.v")
	cmd.Env = append(os.Environ(), "MSA_NO_AVX=1", childEnv+"=1")
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child run: %v\n%s", err, outBytes)
	}
	_, rest, ok := strings.Cut(string(outBytes), "digest:")
	if !ok {
		t.Fatalf("child printed no digest:\n%s", outBytes)
	}
	if got, _, _ := strings.Cut(rest, "\n"); got != want {
		t.Fatalf("MSA_NO_AVX=1 digest %s, want %s", got, want)
	}
}

// trainDigestWant is the SHA-256 of trainDigest as the layers computed it
// with BatchNorm2D's scalar per-channel loops and ReLU's bool mask: the
// channel-lane kernels and the output-gated ReLU must not move a bit.
const trainDigestWant = "a49d6da99780b30f4dc5b6124afc7c978aef2cb93521f9f5d38cee895ee10e01"

// trainDigest hashes two training passes (Forward, MSE loss, Backward) of
// three models through one workspace: the outputs, the input gradients,
// the parameter gradients (accumulated over both passes) and the running
// statistics. The ResNet has width 6 on a 7×7 input, so its batch norms
// meet channel counts that are not multiples of four (6) and planes with
// a pixel tail (49 and 16 pixels); the CovidNet's last plane has 9. The
// second pass gets back the dirty storage of the first.
func trainDigest() string {
	rng := rand.New(rand.NewSource(43))
	models := []*Sequential{
		CovidNetMini(rng, 12, 3),
		ResNetMini(rng, 3, 5, 6, 2),
		MLP(rng, 24, 32, 16, 4),
	}
	inputs := []*tensor.Tensor{
		tensor.RandUniform(rng, -1, 1, 3, 1, 12, 12),
		tensor.RandUniform(rng, -1, 1, 2, 3, 7, 7),
		tensor.RandUniform(rng, -1, 1, 5, 24),
	}
	targets := []*tensor.Tensor{
		tensor.RandUniform(rng, -1, 1, 3, 3),
		tensor.RandUniform(rng, -1, 1, 2, 5),
		tensor.RandUniform(rng, -1, 1, 5, 4),
	}
	sum := sha256.New()
	put := func(x *tensor.Tensor) { binary.Write(sum, binary.LittleEndian, x.Data()) }
	for i, m := range models {
		ws := tensor.NewWorkspace()
		m.SetWorkspace(ws)
		for pass := 0; pass < 2; pass++ {
			ws.ReleaseAll()
			out := m.Forward(inputs[i], true)
			put(out)
			_, grad := LossForward(ws, MSE{}, out, targets[i])
			put(m.Backward(grad))
			for _, p := range m.Params() {
				put(p.Grad)
			}
			for _, s := range m.States() {
				put(s)
			}
		}
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

func TestTrainDigest(t *testing.T) {
	if got := trainDigest(); got != trainDigestWant {
		t.Fatalf("training digest %s, want %s", got, trainDigestWant)
	}
}

// TestTrainDigestNoAVX checks the training digest on the pure-Go kernels.
func TestTrainDigestNoAVX(t *testing.T) {
	requireNoAVXDigest(t, "TestTrainDigestNoAVX", trainDigest, trainDigestWant)
}
