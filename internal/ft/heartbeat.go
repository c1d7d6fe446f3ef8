package ft

import (
	"sync"
	"time"
)

// Monitor is the supervisor's failure detector: each live rank beats once
// per training step, and a watcher goroutine asks which ranks have gone
// stale. Detection is deterministic under the fail-stop injector because a
// Crash fires at the top of a step, before that step's beat — so a dead
// rank's last recorded step is strictly behind the survivors' once they
// advance, regardless of scheduling.
type Monitor struct {
	mu   sync.Mutex
	last map[int]beat // global rank → last heartbeat
	done map[int]bool // global rank → finished cleanly
}

type beat struct {
	step int
	at   time.Time
}

// NewMonitor tracks the given global ranks, all starting at step -1
// ("no beat yet").
func NewMonitor(ranks []int) *Monitor {
	m := &Monitor{last: make(map[int]beat, len(ranks)), done: make(map[int]bool)}
	now := time.Now()
	for _, r := range ranks {
		m.last[r] = beat{step: -1, at: now}
	}
	return m
}

// Beat records that the global rank completed training step `step`.
func (m *Monitor) Beat(rank, step int) {
	m.mu.Lock()
	m.last[rank] = beat{step: step, at: time.Now()}
	m.mu.Unlock()
}

// Done marks the rank as cleanly finished; finished ranks are never
// suspected.
func (m *Monitor) Done(rank int) {
	m.mu.Lock()
	m.done[rank] = true
	m.mu.Unlock()
}

// LastStep returns the last step the rank beat at (-1 before any beat).
func (m *Monitor) LastStep(rank int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last[rank].step
}

// SuspectDead applies the failure-detection rule: a rank is suspected dead
// when it is stale AND its last step is strictly behind the furthest rank.
// The second condition makes detection safe at startup (all ranks at -1 ⇒
// nobody is behind) and deterministic under the injector (a crashed rank
// can never reach the step the survivors stalled at).
func (m *Monitor) SuspectDead(timeout time.Duration) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	maxStep := -1
	for r, b := range m.last {
		if !m.done[r] && b.step > maxStep {
			maxStep = b.step
		}
	}
	cut := time.Now().Add(-timeout)
	var out []int
	for r, b := range m.last {
		if !m.done[r] && b.at.Before(cut) && b.step < maxStep {
			out = append(out, r)
		}
	}
	sortInts(out)
	return out
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
