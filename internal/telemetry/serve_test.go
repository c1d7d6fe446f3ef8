package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("msa_serve_test_total").Add(7)
	tr := NewTracer(64)
	tr.Emit(0, CatCompute, "work", 0, 1000, 0, "")

	degraded := false
	srv, err := Serve("127.0.0.1:0", ServeConfig{
		Registry:  reg,
		Tracer:    tr,
		Breakdown: func() ([]byte, error) { return []byte(`{"steps":[]}`), nil },
		Healthz: func() error {
			if degraded {
				return errors.New("draining")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	if code, body := getBody(t, base+"/metrics"); code != 200 || !strings.Contains(body, "msa_serve_test_total 7") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	code, body := getBody(t, base+"/trace")
	if code != 200 {
		t.Fatalf("/trace: code %d", code)
	}
	var ct ChromeTrace
	if err := json.Unmarshal([]byte(body), &ct); err != nil {
		t.Fatalf("/trace is not valid Chrome trace JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("/trace has no events")
	}
	if code, body := getBody(t, base+"/breakdown"); code != 200 || body != `{"steps":[]}` {
		t.Fatalf("/breakdown: code %d body %q", code, body)
	}
	if code, body := getBody(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: code %d body %q", code, body)
	}
	degraded = true
	if code, body := getBody(t, base+"/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/healthz degraded: code %d body %q", code, body)
	}
	if code, _ := getBody(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code %d", code)
	}
}

func TestServeCloseIdempotentAndRebind(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The port is free again after Close.
	srv2, err := Serve(addr, ServeConfig{})
	if err != nil {
		t.Fatalf("rebind %s after Close: %v", addr, err)
	}
	defer srv2.Close()
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestHistogramQuantileExport(t *testing.T) {
	reg := NewRegistry()
	h := &Histogram{}
	reg.AttachHistogram("msa_q_seconds", h, Label{Key: "op", Value: "step"})
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		marker := fmt.Sprintf(`msa_q_seconds{op="step",quantile=%q} `, q)
		i := strings.Index(out, marker)
		if i < 0 {
			t.Fatalf("missing quantile line %q in:\n%s", marker, out)
		}
		line := out[i+len(marker):]
		line = line[:strings.IndexByte(line, '\n')]
		var v float64
		if _, err := fmt.Sscanf(line, "%g", &v); err != nil {
			t.Fatalf("quantile %s value %q: %v", q, line, err)
		}
		// All observations are 1ms; the power-of-two bucket midpoint
		// reconstruction must land within the bucket's factor-of-two.
		if v < 0.0005 || v > 0.002 {
			t.Fatalf("quantile %s = %v s, want ≈1ms", q, v)
		}
	}
	// Quantile lines carry the bare family name (summary-style), after
	// _count, and only when there are observations.
	if strings.Index(out, "_count") > strings.Index(out, "quantile=") {
		t.Fatal("quantile lines must follow _count")
	}
	reg2 := NewRegistry()
	reg2.AttachHistogram("msa_empty_seconds", &Histogram{})
	b.Reset()
	if err := reg2.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "quantile") {
		t.Fatal("empty histogram must not emit quantile lines")
	}
}
