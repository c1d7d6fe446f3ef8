// Faults: the minimal fault-tolerance tour. Train a small model
// data-parallel on 4 goroutine ranks, kill rank 2 at step 50 with the
// deterministic fault injector, watch the heartbeat detector catch it and
// the supervisor rebuild a 3-rank world from the last coordinated
// checkpoint, and finish the run — printing the lost-step and
// recovery-time accounting at the end.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/ft"
)

func main() {
	// 1. The job: a seeded synthetic classification task, 4 ranks × batch
	//    8 (global batch 32), 100 optimizer steps.
	job := ft.DemoJob(4, 8, 100)

	// 2. The fault plan: a deterministic script, not a coin flip. Rank 2
	//    dies at step 50 — fail-stop, as if its node dropped off the
	//    fabric.
	plan := &ft.Plan{Events: []ft.Event{{Kind: ft.Crash, Rank: 2, Step: 50}}}
	fmt.Printf("fault plan: %s\n\n", plan)

	// 3. The supervisor: coordinated checkpoints every 20 steps, a
	//    heartbeat failure detector, and elastic shrink-on-failure
	//    recovery. The log below is deterministic — run this example twice
	//    and you get the same lines.
	sup, err := ft.NewSupervisor(job, ft.Options{
		Plan:       plan,
		Checkpoint: ft.CheckpointConfig{Every: 20, Retain: 3},
		Logf:       func(format string, args ...any) { fmt.Printf("  | "+format+"\n", args...) },
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sup.Run()
	if err != nil {
		log.Fatal(err)
	}

	// 4. The accounting: what the failure cost and what survived it.
	fmt.Println()
	f := rep.Failures[0]
	fmt.Printf("rank %d died at step %d; survivors resumed from checkpoint step %d\n",
		f.Rank, f.DetectedStep, f.RestoredStep)
	fmt.Printf("lost steps re-executed: %d of %d (%.0f%%)\n",
		rep.LostSteps, rep.FinalStep, 100*float64(rep.LostSteps)/float64(rep.FinalStep))
	fmt.Printf("measured recovery time: %s (detection → survivors restored)\n",
		f.Recovery.Round(time.Millisecond))
	fmt.Printf("final loss: %.4f after %d steps on ranks %v\n",
		rep.FinalLoss, rep.FinalStep, rep.Survivors)
	fmt.Printf("replicas bit-identical after recovery: %v\n", rep.ParamsInSync)
}
