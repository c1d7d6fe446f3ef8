package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, rendered as key="value" in the
// Prometheus exposition format.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// series is one labeled instance of a metric family; exactly one of the
// value sources is set.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	typ    string // "counter" | "gauge" | "histogram"
	help   string
	order  []string
	series map[string]*series
}

// Registry is a named collection of metrics with create-or-get semantics:
// asking for the same (name, labels) pair always returns the same
// instrument. Instruments are lock-free on the hot path (atomic adds);
// the registry lock is taken only on registration and export. Create
// registries with NewRegistry.
type Registry struct {
	mu    sync.Mutex
	order []string
	fams  map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Counter returns the counter registered under name+labels, creating it
// on first use. Panics if the name is already registered as another type.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.seriesFor(name, "counter", labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.seriesFor(name, "gauge", labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// CounterFunc registers a callback-backed counter: the value is read at
// export time. Used to re-export counters owned by other subsystems
// (mpi world stats, serve metrics) without double bookkeeping. The
// callback must be monotonic and safe for concurrent use.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	r.seriesFor(name, "counter", labels).fn = fn
}

// GaugeFunc registers a callback-backed gauge read at export time.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.seriesFor(name, "gauge", labels).fn = fn
}

// AttachHistogram registers an externally owned histogram under
// name+labels, so subsystems keep their own instance (and hot path)
// while the registry exports it.
func (r *Registry) AttachHistogram(name string, h *Histogram, labels ...Label) {
	r.seriesFor(name, "histogram", labels).hist = h
}

// SetHelp attaches a HELP string to a metric family.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fams[name]; f != nil {
		f.help = help
	}
}

func (r *Registry) seriesFor(name, typ string, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, typ: typ, series: map[string]*series{}}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	key := renderLabels(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...)}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// renderLabels formats labels as {a="b",c="d"} ("" when empty), escaping
// backslash, quote, and newline per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families in registration order. The
// registry lock is held for the duration, blocking concurrent
// registration (not instrument updates, which are atomic).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.fams[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, key := range f.order {
			if err := writeSeries(w, f, f.series[key], key); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series, key string) error {
	switch {
	case s.hist != nil:
		counts := s.hist.BucketCounts()
		last := -1
		for i, c := range counts {
			if c > 0 {
				last = i
			}
		}
		var cum int64
		for i := 0; i <= last; i++ {
			cum += counts[i]
			le := formatFloat(BucketUpperBound(i).Seconds())
			withLE := renderLabels(append(append([]Label(nil), s.labels...), Label{"le", le}))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, withLE, cum); err != nil {
				return err
			}
		}
		inf := renderLabels(append(append([]Label(nil), s.labels...), Label{"le", "+Inf"}))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, inf, s.hist.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, key, formatFloat(s.hist.Sum().Seconds())); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, key, s.hist.Count()); err != nil {
			return err
		}
		if s.hist.Count() > 0 {
			for _, q := range [...]float64{0.5, 0.95, 0.99} {
				withQ := renderLabels(append(append([]Label(nil), s.labels...), Label{"quantile", formatFloat(q)}))
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, withQ, formatFloat(s.hist.Quantile(q).Seconds())); err != nil {
					return err
				}
			}
		}
		return nil
	case s.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(s.fn()))
		return err
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, key, s.counter.Value())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(s.gauge.Value()))
		return err
	}
	return nil
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at /metrics to scrape a live process.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
