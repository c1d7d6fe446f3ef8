package distdl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// Golden digests: SHA-256 over the IEEE-754 bits of world rank 0's final
// parameters after goldenSteps fixed-seed steps. The data-parallel and
// pipeline digests were recorded when gradients still travelled through
// flat copies, before the parameter arena, and the data-parallel ones when
// every rank still allreduced the gradient and stepped all of it. Neither
// the arena nor the sharded step changed any arithmetic or element order,
// so they must reproduce bit for bit.

const (
	goldenSteps   = 5
	goldenSamples = 24
)

var goldenCases = []struct {
	name   string
	p      int
	resnet bool
	opts   []Option
	want   string
}{
	{"ddp-mlp-p1", 1, false, nil, "1632a409fa9986fdfb7486c7de72134fd48389c96ae612078cdc82456e8c1c47"},
	{"ddp-mlp-p2", 2, false, nil, "b0ba578e8c708a72c9b1f2925fea0b6055e1cd13bef7ae34f49d5f2e14bbe54e"},
	{"ddp-mlp-p3", 3, false, nil, "9d09fb04467b7b7b149590d4a24e7ccf29a3fd4f7303651f8c88a52950318d0b"},
	{"ddp-mlp-p4", 4, false, nil, "e6d667ab427aaf19ac27fb1f777beae8ec8f394ae04ae96e0398ff76face417d"},
	{"ddp-resnet-p1", 1, true, nil, "27d372cce0a500a7954df07b8e6c667800f4ca72abf408671b41952c7eb65089"},
	{"ddp-resnet-p2", 2, true, nil, "275cb10817b8a35f9eac1b49c97578337055e13f6d2e59a90e65256282593e2f"},
	{"ddp-resnet-p3", 3, true, nil, "ac33b57009594a0ea0ea9f9855d9fc7b3a4319baa27c2a1cd2618be3fee8c51f"},
	{"ddp-resnet-p4", 4, true, nil, "2eaa081cc43afa38402204f5415de35263f6ca8edd57bc1ee8e2c0faf4c77862"},
	{"pipe2d-mlp-2x2-1f1b", 4, false, []Option{WithPipeline(2, 4, pipeline.OneFOneB)}, "e65662e2805f43833e47b595e5614f6de4a11f795c02337da58970c7dc8f1dc4"},
}

func TestGoldenDigests(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			if d := runGolden(t, gc.p, gc.resnet, gc.opts); d != gc.want {
				t.Errorf("digest %s, want %s", d, gc.want)
			}
		})
	}
}

// goldenModel builds the golden runs' model: an MLP, or a ResNetMini with
// convolutions and batch norm.
func goldenModel(resnet bool) *nn.Sequential {
	rng := rand.New(rand.NewSource(71))
	if resnet {
		return nn.ResNetMini(rng, 2, 2, 4, 2)
	}
	return nn.MLP(rng, 12, 32, 24, 2)
}

func goldenData(resnet bool) (*tensor.Tensor, *tensor.Tensor) {
	if !resnet {
		x, y, _ := synthClassification(72, goldenSamples, 12)
		return x, y
	}
	rng := rand.New(rand.NewSource(73))
	labels := make([]int, goldenSamples)
	for i := range labels {
		labels[i] = i % 2
	}
	return tensor.Randn(rng, 1, goldenSamples, 2, 8, 8), nn.OneHot(labels, 2)
}

// runGolden trains goldenSteps steps on p ranks and returns the digest of
// world rank 0's final parameters. SGD runs with momentum and weight decay
// so that both the decayed and the NoDecay (bias) update paths count.
func runGolden(t *testing.T, p int, resnet bool, opts []Option) string {
	t.Helper()
	x, y := goldenData(resnet)
	var digest string
	err := mpi.NewWorld(p).Run(func(c *mpi.Comm) error {
		opts := append([]Option{WithSchedule(nn.ConstLR(0.05))}, opts...)
		tr := New(c, goldenModel(resnet), nn.SoftmaxCrossEntropy{}, nn.NewSGD(0.9, 1e-4), opts...)
		shard, shards := c.Rank(), c.Size()
		if pt, ok := tr.(*PipelineTrainer); ok {
			shard, shards = pt.Replica(), pt.Replicas()
		}
		for s := 0; s < goldenSteps; s++ {
			bx, by := GatherBatch(x, y, Shard(goldenSamples, int64(s), shard, shards))
			tr.Step(bx, by)
		}
		var model *nn.Sequential
		switch v := tr.(type) {
		case *Trainer:
			model = v.Model
		case *PipelineTrainer:
			v.SyncFullModel()
			model = v.Model
		default:
			return fmt.Errorf("unexpected trainer %T", tr)
		}
		if c.Rank() == 0 {
			digest = paramDigest(model)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return digest
}

// paramDigest hashes the little-endian IEEE-754 bits of every parameter
// value in Params() order.
func paramDigest(m *nn.Sequential) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range nn.FlattenValues(m.Params()) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
