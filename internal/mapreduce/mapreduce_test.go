package mapreduce

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rowsOf(vals ...float64) []Row {
	out := make([]Row, len(vals))
	for i, v := range vals {
		out[i] = Row{v}
	}
	return out
}

// collect materializes all rows of d in partition order.
func collect(d *Dataset) []Row {
	byPart := make([][]Row, d.parts)
	d.runParallel(func(p int, rows []Row) { byPart[p] = rows })
	var out []Row
	for _, rows := range byPart {
		out = append(out, rows...)
	}
	return out
}

func TestNewEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(0)
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	e := NewEngine(3)
	rows := rowsOf(1, 2, 3, 4, 5, 6, 7)
	for _, parts := range []int{1, 2, 3, 7, 10} {
		got := collect(e.Parallelize(rows, parts))
		if len(got) != 7 {
			t.Fatalf("parts=%d: %d rows", parts, len(got))
		}
		for i, r := range got {
			if r[0] != float64(i+1) {
				t.Fatalf("parts=%d: order broken: %v", parts, got)
			}
		}
	}
}

func TestMapFilterCount(t *testing.T) {
	e := NewEngine(2)
	ds := e.Parallelize(rowsOf(1, 2, 3, 4, 5, 6), 3).
		Map(func(r Row) Row { return Row{r[0] * 10} })
	got := collect(ds)
	if len(got) != 6 {
		t.Fatalf("count %d", len(got))
	}
	if got[0][0] != 10 || got[5][0] != 60 {
		t.Fatalf("collect: %v", got)
	}
}

func TestReduceByKey(t *testing.T) {
	e := NewEngine(3)
	rows := []Row{{0, 1}, {1, 10}, {0, 2}, {1, 20}, {2, 100}}
	kvs := e.Parallelize(rows, 2).ReduceByKey(
		func(r Row) int { return int(r[0]) },
		func(acc, r Row) Row {
			acc[1] += r[1]
			return acc
		})
	if len(kvs) != 3 {
		t.Fatalf("keys: %v", kvs)
	}
	want := map[int]float64{0: 3, 1: 30, 2: 100}
	for _, kv := range kvs {
		if kv.Value[1] != want[kv.Key] {
			t.Fatalf("key %d: %v", kv.Key, kv.Value)
		}
	}
	// Sorted by key.
	if kvs[0].Key != 0 || kvs[2].Key != 2 {
		t.Fatal("keys not sorted")
	}
}

// Property: Count equals the number of rows and the partitions hold the
// input rows, summing to the sequential sum, for any partitioning.
func TestEngineEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		rows := make([]Row, n)
		want := 0.0
		for i := range rows {
			v := rng.NormFloat64()
			rows[i] = Row{v}
			want += v
		}
		e := NewEngine(1 + rng.Intn(4))
		ds := e.Parallelize(rows, 1+rng.Intn(8))
		got := collect(ds)
		if len(got) != n {
			return false
		}
		sum := 0.0
		for _, r := range got {
			sum += r[0]
		}
		return math.Abs(sum-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// labeled 2-class clusters: label is the last element.
func labeledClusters(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		c := float64(i % 2)
		rows[i] = Row{c*3 + rng.NormFloat64()*0.6, c*3 + rng.NormFloat64()*0.6, c}
	}
	return rows
}

func TestDecisionTreeLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := labeledClusters(rng, 100)
	tree := TrainTree(rows, 2, 2)
	correct := 0
	for _, r := range rows {
		if tree.Predict(r[:2]) == int(r[2]) {
			correct++
		}
	}
	if acc := float64(correct) / 100; acc < 0.95 {
		t.Fatalf("tree accuracy %f", acc)
	}
}

func TestTreePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrainTree(nil, 2, 0)
}

func TestTreeDepthLimit(t *testing.T) {
	// Labels independent of the features: a tree can only memorise them,
	// so it grows until the depth limit stops it.
	rng := rand.New(rand.NewSource(3))
	rows := make([]Row, 400)
	for i := range rows {
		rows[i] = Row{rng.Float64(), rng.Float64(), float64(rng.Intn(2))}
	}
	var depth func(n *treeNode) int
	depth = func(n *treeNode) int {
		if n.left == nil {
			return 0
		}
		return 1 + max(depth(n.left), depth(n.right))
	}
	if d := depth(TrainTree(rows, 2, 4).root); d != treeMaxDepth {
		t.Fatalf("tree depth %d, want the limit %d", d, treeMaxDepth)
	}
}

func TestRandomForestBeatsOrMatchesSingleTreeOnNoisyData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Noisy task: XOR-ish with irrelevant features.
	mk := func(n int, r *rand.Rand) []Row {
		rows := make([]Row, n)
		for i := range rows {
			a := float64(r.Intn(2))
			b := float64(r.Intn(2))
			lbl := 0.0
			if a != b {
				lbl = 1
			}
			rows[i] = Row{
				a + r.NormFloat64()*0.3, b + r.NormFloat64()*0.3,
				r.NormFloat64(), r.NormFloat64(), // noise features
				lbl,
			}
		}
		return rows
	}
	train := mk(200, rng)
	test := mk(200, rng)
	e := NewEngine(4)
	forest := TrainForest(e, train, 2, ForestConfig{Trees: 25, Seed: 6})
	accF := forest.Accuracy(test)
	single := TrainTree(train, 2, 6)
	correct := 0
	for _, r := range test {
		if single.Predict(r[:len(r)-1]) == int(r[len(r)-1]) {
			correct++
		}
	}
	accT := float64(correct) / float64(len(test))
	if accF < 0.8 {
		t.Fatalf("forest accuracy %f", accF)
	}
	if accF < accT-0.05 {
		t.Fatalf("forest (%f) markedly worse than single tree (%f)", accF, accT)
	}
}

func TestForestDeterministicBySeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := labeledClusters(rng, 80)
	e := NewEngine(4)
	f1 := TrainForest(e, rows, 2, ForestConfig{Trees: 5, Seed: 8})
	f2 := TrainForest(e, rows, 2, ForestConfig{Trees: 5, Seed: 8})
	for i := 0; i < 80; i++ {
		x := rows[i][:2]
		if f1.Predict(x) != f2.Predict(x) {
			t.Fatal("forest must be deterministic by seed despite parallel training")
		}
	}
}

func TestForestPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrainForest(NewEngine(1), nil, 2, ForestConfig{})
}

func TestKMeansRecoversClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var rows []Row
	centers := []Row{{0, 0}, {10, 10}, {-10, 10}}
	for i := 0; i < 150; i++ {
		c := centers[i%3]
		rows = append(rows, Row{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()})
	}
	e := NewEngine(3)
	res := KMeans(e, rows, 3, 50, 10)
	if len(res.Centroids) != 3 {
		t.Fatal("centroid count")
	}
	// Every true center must have a centroid within distance 1.5.
	for _, c := range centers {
		found := false
		for _, got := range res.Centroids {
			d := math.Hypot(got[0]-c[0], got[1]-c[1])
			if d < 1.5 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no centroid near %v: %v", c, res.Centroids)
		}
	}
	// Cluster assignments must agree with generation pattern (same label
	// for same residue class).
	if res.Assignments[0] != res.Assignments[3] || res.Assignments[1] != res.Assignments[4] {
		t.Fatal("assignments inconsistent")
	}
	if res.Inertia <= 0 || res.Iterations < 1 {
		t.Fatalf("result bookkeeping: %+v", res.Iterations)
	}
}

func TestKMeansPanicsOnBadK(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KMeans(e, rowsOf(1, 2), 5, 10, 1)
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = Row{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
	}
	e := NewEngine(2)
	i1 := KMeans(e, rows, 1, 30, 3).Inertia
	i4 := KMeans(e, rows, 4, 30, 3).Inertia
	i16 := KMeans(e, rows, 16, 30, 3).Inertia
	if !(i16 < i4 && i4 < i1) {
		t.Fatalf("inertia must decrease with k: %f %f %f", i1, i4, i16)
	}
}
