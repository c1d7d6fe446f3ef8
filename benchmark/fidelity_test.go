package main

import (
	"testing"
)

// TestWrappersDoNotChangeTheProgram pins what the traced run rests on: with
// the layer, optimizer and communicator wrappers installed, the trainers
// compute bitwise the same losses and miss the workspace pool exactly as
// often as without them, so the traced run measures the same program.
func TestWrappersDoNotChangeTheProgram(t *testing.T) {
	for _, name := range []string{"resnet-ddp", "pipe-2d"} {
		var spec trainSpec
		for _, s := range trainSpecs {
			if s.name == name {
				spec = *s
			}
		}
		spec.segSteps, spec.jobSegs = 5, 2
		o := runOpts{seed: 5, smoke: true, finishJob: true, outDir: t.TempDir()}
		bare := spec.run(o)
		o.ts = newTraceSet()
		wrapped := spec.run(o)
		for _, out := range []*trainOutcome{bare, wrapped} {
			if len(out.errs) > 0 || len(out.steps) != 11 || len(out.warm) != spec.warmup {
				t.Fatalf("%s: run did not complete: %v, %d steps", name, out.errs, len(out.steps))
			}
		}
		for i := range bare.warm {
			if bare.warm[i] != wrapped.warm[i] {
				t.Errorf("%s warm-up step %d: loss %v bare, %v wrapped", name, i, bare.warm[i], wrapped.warm[i])
			}
		}
		for i := range bare.steps {
			if bare.steps[i].loss != wrapped.steps[i].loss {
				t.Errorf("%s step %d: loss %v bare, %v wrapped", name, i, bare.steps[i].loss, wrapped.steps[i].loss)
			}
		}
		if bare.poolMisses != wrapped.poolMisses {
			t.Errorf("%s: %d workspace pool misses bare, %d wrapped", name, bare.poolMisses, wrapped.poolMisses)
		}
		if len(wrapped.layers) == 0 || len(wrapped.tracks[0].spans) == 0 {
			t.Errorf("%s: the wrapped run recorded no layers or spans", name)
		}
	}
}
