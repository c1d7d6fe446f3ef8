package mapreduce

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// MLlib-equivalent algorithms: the random-forest classifier the paper's
// footnote 37 points at, and k-means for exploratory RS analytics.

// treeNode is one node of a CART decision tree.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	label     int // leaf prediction when left == nil
}

// DecisionTree is a CART classifier trained with Gini impurity.
type DecisionTree struct {
	root *treeNode
}

// Tree induction stops at depth treeMaxDepth and at nodes of fewer than
// treeMinSamples rows.
const (
	treeMaxDepth   = 8
	treeMinSamples = 2
)

// TrainTree fits a decision tree on rows whose last element is the class
// label in [0, classes), trying every feature at each split.
func TrainTree(rows []Row, classes int, seed int64) *DecisionTree {
	return trainTree(rows, classes, 0, seed)
}

// trainTree tries featureSubs randomly drawn features at each split, or
// every feature when featureSubs is 0.
func trainTree(rows []Row, classes, featureSubs int, seed int64) *DecisionTree {
	if len(rows) == 0 {
		panic("mapreduce: TrainTree on empty data")
	}
	rng := rand.New(rand.NewSource(seed))
	return &DecisionTree{root: buildNode(rows, classes, featureSubs, rng, 0)}
}

func majority(rows []Row, classes int) int {
	counts := make([]int, classes)
	for _, r := range rows {
		counts[int(r[len(r)-1])]++
	}
	best, bi := -1, 0
	for c, n := range counts {
		if n > best {
			best, bi = n, c
		}
	}
	return bi
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, n := range counts {
		p := float64(n) / float64(total)
		g -= p * p
	}
	return g
}

func buildNode(rows []Row, classes, featureSubs int, rng *rand.Rand, depth int) *treeNode {
	leaf := &treeNode{label: majority(rows, classes)}
	if depth >= treeMaxDepth || len(rows) < treeMinSamples || pure(rows) {
		return leaf
	}
	nf := len(rows[0]) - 1
	features := rng.Perm(nf)
	if featureSubs > 0 && featureSubs < nf {
		features = features[:featureSubs]
	}

	bestGain, bestF := 0.0, -1
	var bestThr float64
	parentCounts := make([]int, classes)
	for _, r := range rows {
		parentCounts[int(r[len(r)-1])]++
	}
	parentG := gini(parentCounts, len(rows))

	vals := make([]float64, len(rows))
	for _, f := range features {
		for i, r := range rows {
			vals[i] = r[f]
		}
		sort.Float64s(vals)
		// Candidate thresholds: midpoints of a decile scan (cheap and
		// robust, as MLlib's binned splits are).
		for q := 1; q < 10; q++ {
			thr := vals[q*len(vals)/10]
			lc := make([]int, classes)
			rc := make([]int, classes)
			ln, rn := 0, 0
			for _, r := range rows {
				c := int(r[len(r)-1])
				if r[f] <= thr {
					lc[c]++
					ln++
				} else {
					rc[c]++
					rn++
				}
			}
			if ln == 0 || rn == 0 {
				continue
			}
			gain := parentG - (float64(ln)*gini(lc, ln)+float64(rn)*gini(rc, rn))/float64(len(rows))
			if gain > bestGain {
				bestGain, bestF, bestThr = gain, f, thr
			}
		}
	}
	if bestF < 0 || bestGain < 1e-9 {
		return leaf
	}
	var left, right []Row
	for _, r := range rows {
		if r[bestF] <= bestThr {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return &treeNode{
		feature: bestF, threshold: bestThr,
		left:  buildNode(left, classes, featureSubs, rng, depth+1),
		right: buildNode(right, classes, featureSubs, rng, depth+1),
		label: leaf.label,
	}
}

func pure(rows []Row) bool {
	first := rows[0][len(rows[0])-1]
	for _, r := range rows[1:] {
		if r[len(r)-1] != first {
			return false
		}
	}
	return true
}

// Predict returns the class of a feature vector (without label element).
func (t *DecisionTree) Predict(x Row) int {
	n := t.root
	for n.left != nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

// RandomForest is a bagged ensemble of CART trees with feature
// sub-sampling: the MLlib classifier of the paper's RS analytics.
type RandomForest struct {
	Trees   []*DecisionTree
	classes int
}

// ForestConfig tunes forest training.
type ForestConfig struct {
	Trees int // default 10
	Seed  int64
}

// TrainForest trains the forest data-parallel on the engine: each tree
// fits a bootstrap sample, trees are distributed over worker goroutines
// (this is exactly Spark MLlib's execution shape).
func TrainForest(eng *Engine, rows []Row, classes int, cfg ForestConfig) *RandomForest {
	if cfg.Trees == 0 {
		cfg.Trees = 10
	}
	if len(rows) == 0 {
		panic("mapreduce: TrainForest on empty data")
	}
	nf := len(rows[0]) - 1
	// Each split samples √d features, the random-subspace rule.
	subs := int(math.Ceil(math.Sqrt(float64(nf))))
	forest := &RandomForest{classes: classes, Trees: make([]*DecisionTree, cfg.Trees)}
	sem := make(chan struct{}, eng.workers)
	var wg sync.WaitGroup
	for b := 0; b < cfg.Trees; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(b)*7919))
			boot := make([]Row, len(rows))
			for i := range boot {
				boot[i] = rows[rng.Intn(len(rows))]
			}
			forest.Trees[b] = trainTree(boot, classes, subs, cfg.Seed+int64(b)*104729)
		}(b)
	}
	wg.Wait()
	return forest
}

// Predict returns the majority vote over trees.
func (f *RandomForest) Predict(x Row) int {
	votes := make([]int, f.classes)
	for _, t := range f.Trees {
		votes[t.Predict(x)]++
	}
	best, bi := -1, 0
	for c, v := range votes {
		if v > best {
			best, bi = v, c
		}
	}
	return bi
}

// Accuracy evaluates labeled rows (label = last element).
func (f *RandomForest) Accuracy(rows []Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	correct := 0
	for _, r := range rows {
		if f.Predict(r[:len(r)-1]) == int(r[len(r)-1]) {
			correct++
		}
	}
	return float64(correct) / float64(len(rows))
}

// KMeansResult holds clustering output.
type KMeansResult struct {
	Centroids []Row
	// Assignments per input row (same order as Collect()).
	Assignments []int
	Iterations  int
	Inertia     float64 // sum of squared distances to assigned centroid
}

// kmeansPlusPlusInit seeds centroids with the k-means++ scheme (each new
// centroid drawn proportional to squared distance from the chosen set),
// which avoids the empty/duplicated-cluster local optima of uniform
// seeding.
func kmeansPlusPlusInit(rows []Row, k int, rng *rand.Rand) []Row {
	centroids := make([]Row, 0, k)
	centroids = append(centroids, append(Row(nil), rows[rng.Intn(len(rows))]...))
	d2 := make([]float64, len(rows))
	for len(centroids) < k {
		total := 0.0
		last := centroids[len(centroids)-1]
		for i, r := range rows {
			d := 0.0
			for j := range r {
				dd := r[j] - last[j]
				d += dd * dd
			}
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		pick := rng.Float64() * total
		idx := 0
		for i, d := range d2 {
			pick -= d
			if pick <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, append(Row(nil), rows[idx]...))
	}
	return centroids
}

// KMeans clusters rows into k groups using map-reduce iterations on the
// engine: each iteration is a Map (assign to nearest centroid) followed
// by a ReduceByKey (sum vectors per cluster), the canonical MLlib k-means.
func KMeans(eng *Engine, rows []Row, k, maxIter int, seed int64) KMeansResult {
	if k < 1 || k > len(rows) {
		panic(fmt.Sprintf("mapreduce: k=%d invalid for %d rows", k, len(rows)))
	}
	dim := len(rows[0])
	rng := rand.New(rand.NewSource(seed))
	centroids := kmeansPlusPlusInit(rows, k, rng)

	ds := eng.Parallelize(rows, eng.workers)
	nearest := func(r Row) int {
		best, bi := math.Inf(1), 0
		for c, cent := range centroids {
			d := 0.0
			for j := range cent {
				dd := r[j] - cent[j]
				d += dd * dd
			}
			if d < best {
				best, bi = d, c
			}
		}
		return bi
	}

	iter := 0
	for ; iter < maxIter; iter++ {
		// Map rows to (cluster, [row..., 1]) and reduce sums per cluster.
		sums := ds.Map(func(r Row) Row {
			out := make(Row, dim+2)
			out[0] = float64(nearest(r))
			copy(out[1:], r)
			out[dim+1] = 1
			return out
		}).ReduceByKey(
			func(r Row) int { return int(r[0]) },
			func(acc, r Row) Row {
				for j := 1; j < len(acc); j++ {
					acc[j] += r[j]
				}
				return acc
			})
		moved := 0.0
		for _, kv := range sums {
			cnt := kv.Value[dim+1]
			if cnt == 0 {
				continue
			}
			for j := 0; j < dim; j++ {
				nv := kv.Value[1+j] / cnt
				d := nv - centroids[kv.Key][j]
				moved += d * d
				centroids[kv.Key][j] = nv
			}
		}
		if moved < 1e-9 {
			iter++
			break
		}
	}

	res := KMeansResult{Centroids: centroids, Iterations: iter}
	res.Assignments = make([]int, len(rows))
	for i, r := range rows {
		c := nearest(r)
		res.Assignments[i] = c
		for j := range centroids[c] {
			d := r[j] - centroids[c][j]
			res.Inertia += d * d
		}
	}
	return res
}
