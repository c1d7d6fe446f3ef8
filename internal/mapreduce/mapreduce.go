// Package mapreduce is a miniature Spark-like data-parallel engine: the
// stand-in for the Apache Spark / Hadoop analytics stack the paper runs
// on the large-memory Data Analytics Module (§III-B: "The analysis of
// larger RS datasets can take advantage of Apache Spark on the
// large-memory DEEP DAM nodes using the MLlib implementation").
//
// A Dataset is a partitioned collection of float64 rows; the Map
// transformation is a lazy per-partition closure executed by a pool of
// worker goroutines, and the actions (ReduceByKey, Count) trigger
// parallel execution. On top of it, mllib.go implements the two
// MLlib algorithms the paper's case studies name: random forests (the
// "robust classifiers often used", footnote 37) and k-means.
package mapreduce

import (
	"fmt"
	"sort"
	"sync"
)

// Row is one record: a feature vector, optionally with a label appended
// by the caller's convention.
type Row = []float64

// Engine executes jobs over a fixed worker pool, modeling the DAM's
// executor processes.
type Engine struct {
	workers int
}

// NewEngine creates an engine with the given parallelism (≥1).
func NewEngine(workers int) *Engine {
	if workers < 1 {
		panic(fmt.Sprintf("mapreduce: workers must be >=1, got %d", workers))
	}
	return &Engine{workers: workers}
}

// Workers returns the engine parallelism.
func (e *Engine) Workers() int { return e.workers }

// Dataset is a lazily transformed, partitioned collection of rows.
type Dataset struct {
	eng *Engine
	// compute materializes partition i.
	compute func(part int) []Row
	parts   int
}

// Parallelize partitions rows into `parts` chunks.
func (e *Engine) Parallelize(rows []Row, parts int) *Dataset {
	if parts < 1 {
		parts = 1
	}
	n := len(rows)
	return &Dataset{
		eng:   e,
		parts: parts,
		compute: func(p int) []Row {
			lo, hi := p*n/parts, (p+1)*n/parts
			return rows[lo:hi]
		},
	}
}

// Map applies f to every row, lazily.
func (d *Dataset) Map(f func(Row) Row) *Dataset {
	prev := d.compute
	return &Dataset{
		eng: d.eng, parts: d.parts,
		compute: func(p int) []Row {
			in := prev(p)
			out := make([]Row, len(in))
			for i, r := range in {
				out[i] = f(r)
			}
			return out
		},
	}
}

// runParallel materializes every partition using the worker pool and
// hands each to sink (called concurrently, once per partition).
func (d *Dataset) runParallel(sink func(part int, rows []Row)) {
	sem := make(chan struct{}, d.eng.workers)
	var wg sync.WaitGroup
	for p := 0; p < d.parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sink(p, d.compute(p))
		}(p)
	}
	wg.Wait()
}

// Count returns the number of rows after all transformations.
func (d *Dataset) Count() int {
	counts := make([]int, d.parts)
	d.runParallel(func(p int, rows []Row) { counts[p] = len(rows) })
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// KV is a keyed value vector for shuffle operations.
type KV struct {
	Key   int
	Value Row
}

// ReduceByKey groups rows by key (computed per row) and combines values
// within each key with an associative combiner, performing per-partition
// pre-aggregation before the shuffle exactly as Spark does. Results are
// returned sorted by key.
func (d *Dataset) ReduceByKey(keyOf func(Row) int, combine func(acc, r Row) Row) []KV {
	partials := make([]map[int]Row, d.parts)
	d.runParallel(func(p int, rows []Row) {
		local := map[int]Row{}
		for _, r := range rows {
			k := keyOf(r)
			if acc, ok := local[k]; ok {
				local[k] = combine(acc, r)
			} else {
				local[k] = append(Row(nil), r...)
			}
		}
		partials[p] = local
	})
	merged := map[int]Row{}
	for _, local := range partials {
		for k, v := range local {
			if acc, ok := merged[k]; ok {
				merged[k] = combine(acc, v)
			} else {
				merged[k] = v
			}
		}
	}
	out := make([]KV, 0, len(merged))
	for k, v := range merged {
		out = append(out, KV{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
