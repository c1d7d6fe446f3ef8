// Package repro's root benchmark suite: one testing.B benchmark per paper
// table/figure (experiment index in DESIGN.md §3). Each benchmark times
// the core operation behind its experiment — a full training step, a
// collective, a scheduler run — so `go test -bench=. -benchmem` doubles
// as the performance regression harness for the repository. Run the full
// reports with `go run ./cmd/msa-bench`.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/distdl"
	"repro/internal/mapreduce"
	"repro/internal/mpi"
	"repro/internal/msa"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/qa"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/svm"
	"repro/internal/tensor"
)

// BenchmarkE1_TableI renders the paper's Table I from the DEEP config.
func BenchmarkE1_TableI(b *testing.B) {
	dam := msa.DEEP().Module(msa.DataAnalytics)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = msa.RenderTableI(dam)
	}
}

// BenchmarkE2_JUWELSAggregates computes the §II-B configuration numbers.
func BenchmarkE2_JUWELSAggregates(b *testing.B) {
	j := msa.JUWELS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm := j.Module(msa.ClusterModule)
		esb := j.Module(msa.BoosterModule)
		_ = cm.Cores() + esb.Cores() + cm.GPUs() + esb.GPUs()
	}
}

// BenchmarkE3_ResNetScaling times one synchronous data-parallel training
// step of the mini ResNet at several worker counts (Fig. 3 middle right).
func BenchmarkE3_ResNetScaling(b *testing.B) {
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: 16, Seed: 1})
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			world := mpi.NewWorld(workers)
			b.ResetTimer()
			err := world.Run(func(c *mpi.Comm) error {
				model := nn.ResNetMini(rand.New(rand.NewSource(2)), 4, ds.Classes, 8, 2)
				tr := distdl.New(c, model, nn.BCEWithLogits{}, nn.NewSGD(0.9, 0))
				idx := []int{c.Rank() % 16, (c.Rank() + 1) % 16}
				bx, by := distdl.GatherBatch(ds.X, ds.Y, idx)
				for i := 0; i < b.N; i++ {
					tr.Step(bx, by)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkE4_AccuracyVsWorkers times the full (quick) accuracy-parity
// run: training with the warmup + linear-scaling rule at 2 workers.
func BenchmarkE4_AccuracyVsWorkers(b *testing.B) {
	ds := data.GenMultispectral(data.MultispectralConfig{Samples: 24, Seed: 3, MaxLabels: 1, Classes: 4, Size: 12})
	split := data.TrainValSplit(24, 0.25, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.TrainResNetBigEarthNet(core.DDPConfig{Workers: 2, Epochs: 1, Batch: 4,
			BaseLR: 0.02, Warmup: 4, Seed: 5}, ds, split)
	}
}

// BenchmarkE5_ScalingModel evaluates the 1→128-GPU analytic scaling curve.
func BenchmarkE5_ScalingModel(b *testing.B) {
	m := perfmodel.ResNet50BigEarthNet()
	workers := []int{1, 2, 4, 8, 16, 32, 64, 96, 128}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ScalingCurve(workers)
	}
}

// BenchmarkE6_CovidNet times one training step of the CXR screening CNN.
func BenchmarkE6_CovidNet(b *testing.B) {
	ds := data.GenCXR(data.CXRConfig{Samples: 8, Seed: 6})
	model := nn.CovidNetMini(rand.New(rand.NewSource(7)), 32, data.CXRClasses)
	opt := nn.NewSGD(0.9, 0)
	loss := nn.SoftmaxCrossEntropy{}
	oneHot := ds.OneHotLabels()
	bx := data.SelectRows(ds.X, []int{0, 1, 2, 3})
	by := data.SelectRows(oneHot, []int{0, 1, 2, 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.ZeroGrads()
		out := model.Forward(bx, true)
		_, grad := loss.Forward(out, by)
		model.Backward(grad)
		opt.Step(model.Params(), 0.01)
	}
}

// BenchmarkE7_GRUImputation times one full-batch GRU training step of the
// §IV-B imputation model.
func BenchmarkE7_GRUImputation(b *testing.B) {
	ds := data.GenICU(data.ICUConfig{Patients: 8, Steps: 32, Seed: 8})
	task := ds.MakeImputationTask(data.ChPaO2, 0.25, 9)
	model := nn.GRUImputer(rand.New(rand.NewSource(10)), task.Input.Dim(2))
	opt := nn.NewAdam()
	loss := nn.MaskedMAE{Mask: task.EvalMask}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.ZeroGrads()
		pred := model.Forward(task.Input, true)
		_, grad := loss.Forward(pred, task.Target)
		model.Backward(grad)
		opt.Step(model.Params(), 1e-3)
	}
}

// BenchmarkE8_QSVM times training one quantum SVM on a 12-sample
// sub-set (QUBO build + simulated anneal + decode).
func BenchmarkE8_QSVM(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, 12)
	y := make([]int, 12)
	for i := range x {
		c := 1
		if i%2 == 0 {
			c = -1
		}
		x[i] = []float64{float64(c) + rng.NormFloat64()*0.3, float64(c) + rng.NormFloat64()*0.3}
		y[i] = c
	}
	cfg := qa.QSVMConfig{Anneal: qa.AnnealConfig{Reads: 3, Sweeps: 50, Seed: 12}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qa.TrainQSVM(x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9_Allreduce sweeps each allreduce algorithm (the GCE
// comparison of §II-A) over goroutine rank counts, at a latency-bound 4 KB and a bandwidth-bound
// 4 MB payload. Cells are named <algo>/p=<P>/<payload> and report bus
// bandwidth, 2·(p−1)/p · bytes / time: flat across p means the algorithm
// scales like a bandwidth-optimal ring.
func BenchmarkE9_Allreduce(b *testing.B) {
	for _, a := range []struct {
		name string
		algo mpi.Algo
	}{
		{"naive", mpi.AlgoNaive},
		{"tree", mpi.AlgoTree},
		{"recdbl", mpi.AlgoRecursiveDoubling},
		{"ring", mpi.AlgoRing},
		{"gce", mpi.AlgoGCE},
	} {
		for _, p := range []int{2, 4, 8, 16} {
			for _, payload := range []struct {
				label string
				elems int
			}{{"4KB", 512}, {"4MB", 1 << 19}} {
				b.Run(fmt.Sprintf("%s/p=%d/%s", a.name, p, payload.label), func(b *testing.B) {
					w := mpi.NewWorld(p)
					b.ResetTimer()
					err := w.Run(func(c *mpi.Comm) error {
						buf := make([]float64, payload.elems)
						for i := 0; i < b.N; i++ {
							c.AllreduceInPlace(buf, mpi.OpSum, a.algo)
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
					busBytes := 2 * float64(p-1) / float64(p) * float64(payload.elems*8)
					b.ReportMetric(busBytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "busGB/s")
				})
			}
		}
	}
}

// BenchmarkE10_Scheduler times a 60-job modular scheduling simulation.
func BenchmarkE10_Scheduler(b *testing.B) {
	sys := msa.DEEP()
	jobs := sched.GenWorkload(60, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sched.Simulate(sys, jobs, sched.Options{Backfill: true})
	}
}

// BenchmarkE11_CascadeSVM times cascade training on 4 ranks over 400
// samples (ref [16]).
func BenchmarkE11_CascadeSVM(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	n := 400
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		c := 1
		if i%2 == 0 {
			c = -1
		}
		x[i] = []float64{float64(c)*1.5 + rng.NormFloat64()*0.5, float64(c)*1.5 + rng.NormFloat64()*0.5}
		y[i] = c
	}
	cfg := svm.Config{Kernel: svm.RBF{Gamma: 0.5}, Seed: 15}
	xs, ys := svm.ShardData(x, y, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(4)
		if err := w.Run(func(c *mpi.Comm) error {
			svm.TrainCascade(c, xs[c.Rank()], ys[c.Rank()], cfg)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12_Storage times E12's NAM-shared staging model and the
// striped-bandwidth model.
func BenchmarkE12_Storage(b *testing.B) {
	deep := msa.DEEP()
	fs := storage.NewSSSM(*deep.Module(msa.StorageService).Storage)
	b.Run("nam-shared", func(b *testing.B) {
		nam := storage.NewNAM(*deep.Module(msa.NetworkMemory).NAM)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = storage.SharedNAMTime(i%16+1, 50, fs, nam, 4)
		}
	})
	b.Run("stream-bw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fs.StreamBW(4, i%32+1)
		}
	})
}

// BenchmarkE13_Assignment times the workload→module evaluation matrix.
func BenchmarkE13_Assignment(b *testing.B) {
	deep := msa.DEEP()
	w := perfmodel.Workload{Name: "dl", Class: perfmodel.ClassDLTraining, PrefersGPU: true,
		Flops: 2e16, Bytes: 5e12, ParallelFrac: 0.995, CommElems: 25_600_000, Steps: 500, MemoryGB: 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfmodel.BestModule(w, deep, 16)
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkMatMul128 is the dense kernel underpinning all NN compute.
func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	x := tensor.Randn(rng, 1, 128, 128)
	y := tensor.Randn(rng, 1, 128, 128)
	out := tensor.New(128, 128)
	b.SetBytes(128 * 128 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, x, y)
	}
}

// BenchmarkIm2Col measures the convolution lowering.
func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	img := tensor.Randn(rng, 1, 4, 8, 16, 16)
	cols := tensor.New(4*16*16, 8*3*3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Im2ColInto(cols, img, 3, 3, 1, 1, 1)
	}
}

// BenchmarkConv2DTrain measures one Conv2D training pass (Forward +
// Backward: forward, filter-gradient and input-gradient kernels) at the
// two layer shapes that carry resnet-ddp, in GFLOP/s over the 3·2·N·P·K·OutC
// flops the three products perform.
func BenchmarkConv2DTrain(b *testing.B) {
	for _, s := range []struct{ n, c, hw, outC int }{{16, 8, 16, 8}, {16, 16, 8, 16}} {
		b.Run(fmt.Sprintf("%dx%dx%dx%d-%d", s.n, s.c, s.hw, s.hw, s.outC), func(b *testing.B) {
			rng := rand.New(rand.NewSource(17))
			ws := tensor.NewWorkspace()
			conv := nn.NewConv2D(rng, "c", s.c, s.outC, 3, 1, 1)
			conv.SetWorkspace(ws)
			x := tensor.Randn(rng, 1, s.n, s.c, s.hw, s.hw)
			dout := tensor.Randn(rng, 1, s.n, s.outC, s.hw, s.hw)
			flops := 6 * float64(s.n*s.hw*s.hw) * float64(s.c*9) * float64(s.outC)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.ReleaseAll()
				conv.Forward(x, true)
				conv.Backward(dout)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkGRUForward measures the recurrent forward pass.
func BenchmarkGRUForward(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	g := nn.NewGRU(rng, "g", 12, 32)
	x := tensor.Randn(rng, 1, 8, 32, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Forward(x, false)
	}
}

func benchName(prefix string, v int) string {
	return prefix + "-" + string(rune('0'+v))
}

// BenchmarkE14_RandomForest times MLlib-style forest training on the
// map-reduce engine (§III-B analytics).
func BenchmarkE14_RandomForest(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	rows := make([]mapreduce.Row, 200)
	for i := range rows {
		c := float64(i % 3)
		rows[i] = mapreduce.Row{c + rng.NormFloat64(), c*2 + rng.NormFloat64(), c}
	}
	eng := mapreduce.NewEngine(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapreduce.TrainForest(eng, rows, 3, mapreduce.ForestConfig{Trees: 10, Seed: int64(i)})
	}
}

// BenchmarkE15_Autoencoder times one AE training epoch on 300 spectra.
func BenchmarkE15_Autoencoder(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	x := tensor.Randn(rng, 1, 300, 6)
	ae := nn.NewAutoencoder(rng, 6, 24, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.TrainAutoencoder(ae, x, 1, 1e-3)
	}
}

// BenchmarkE16_EarlyWarning times one GRU-classifier training step on the
// ARDS early-warning windows.
func BenchmarkE16_EarlyWarning(b *testing.B) {
	ds := data.GenICU(data.ICUConfig{Patients: 10, Steps: 40, Seed: 21, ARDSFraction: 0.5})
	x, labels := ds.EarlyWarningWindows(8, 6, 4)
	model := nn.NewSequential(
		nn.NewGRU(rand.New(rand.NewSource(22)), "g", x.Dim(2), 16),
		&nn.LastTimestep{},
		nn.NewDense(rand.New(rand.NewSource(23)), "head", 16, 2),
	)
	opt := nn.NewAdam()
	loss := nn.SoftmaxCrossEntropy{}
	oneHot := nn.OneHot(labels, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.ZeroGrads()
		out := model.Forward(x, true)
		_, grad := loss.Forward(out, oneHot)
		model.Backward(grad)
		opt.Step(model.Params(), 1e-3)
	}
}

// BenchmarkKMeansMapReduce times one k-means job on the engine.
func BenchmarkKMeansMapReduce(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	rows := make([]mapreduce.Row, 300)
	for i := range rows {
		c := float64(i % 3 * 5)
		rows[i] = mapreduce.Row{c + rng.NormFloat64(), c + rng.NormFloat64()}
	}
	eng := mapreduce.NewEngine(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapreduce.KMeans(eng, rows, 3, 10, int64(i))
	}
}

// benchServeBackend is a serve.Backend that echoes its input as scores
// after a fixed per-batch service time — the overhead-dominated regime
// where dynamic batching pays off.
type benchServeBackend struct{ delay time.Duration }

func (e *benchServeBackend) Infer(x *tensor.Tensor) (*tensor.Tensor, error) {
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	out := tensor.New(x.Dim(0), x.Dim(1))
	copy(out.Data(), x.Data())
	return out, nil
}

// BenchmarkServeThroughput pushes concurrent requests through the online
// serving tier at several max-batch settings; the ns/op spread is the
// dynamic-batching amortization of the per-batch service time.
func BenchmarkServeThroughput(b *testing.B) {
	for _, batch := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			backends := []serve.Backend{
				&benchServeBackend{delay: 50 * time.Microsecond},
				&benchServeBackend{delay: 50 * time.Microsecond},
			}
			s := serve.New(backends, serve.Config{
				MaxBatch:        batch,
				BatchWindow:     200 * time.Microsecond,
				QueueCap:        256,
				DefaultDeadline: time.Minute,
			})
			defer s.Close()
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				x := tensor.New(4)
				x.Set(1, 0)
				for pb.Next() {
					if _, err := s.Predict(context.Background(), x); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkServeLatency measures single-client end-to-end request latency
// (enqueue → batcher → real model forward → response routing) with
// batching disabled, i.e. the serving tier's per-request floor.
func BenchmarkServeLatency(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	model := nn.MLP(rng, 8, 4)
	s := serve.New(
		[]serve.Backend{serve.NewModelBackend(model, nn.ActSoftmax)},
		serve.Config{MaxBatch: 1, QueueCap: 16, DefaultDeadline: time.Minute},
	)
	defer s.Close()
	x := tensor.Randn(rng, 1, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Predict(context.Background(), x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCA times power-iteration PCA on 300×6 data.
func BenchmarkPCA(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	x := tensor.Randn(rng, 1, 300, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.PCA(x, 2, 30, rng)
	}
}
