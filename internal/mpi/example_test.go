package mpi_test

import (
	"fmt"

	"repro/internal/mpi"
)

// ExampleWorld_Run shows the SPMD programming model: four goroutine ranks
// average a value with a ring allreduce.
func ExampleWorld_Run() {
	world := mpi.NewWorld(4)
	err := world.Run(func(c *mpi.Comm) error {
		mine := []float64{float64(c.Rank())}
		sum := c.Allreduce(mine, mpi.OpSum, mpi.AlgoRing)
		if c.Rank() == 0 {
			fmt.Printf("sum over %d ranks: %.0f\n", c.Size(), sum[0])
		}
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: sum over 4 ranks: 6
}

// ExampleComm_Split builds node-local sub-communicators, the structure
// a two-level allreduce over NVLink islands would reduce within first.
func ExampleComm_Split() {
	world := mpi.NewWorld(4)
	_ = world.Run(func(c *mpi.Comm) error {
		node := c.Rank() / 2 // two ranks per "node"
		local := c.Split(node, c.Rank())
		sum := local.Allreduce([]float64{1}, mpi.OpSum, mpi.AlgoRing)
		if c.Rank() == 0 {
			fmt.Printf("node group size: %d, local sum: %.0f\n", local.Size(), sum[0])
		}
		return nil
	})
	// Output: node group size: 2, local sum: 2
}

// ExampleCollectiveCostModel projects allreduce cost to paper scale.
func ExampleCollectiveCostModel() {
	// ResNet-50 gradient (25.6M floats) over EXTOLL at 3744 ranks.
	alpha, beta := 1.2e-6, 8.0/12.5e9
	ring := mpi.CollectiveCostModel(mpi.AlgoRing, 3744, 25_600_000, alpha, beta, 4)
	gce := mpi.CollectiveCostModel(mpi.AlgoGCE, 3744, 25_600_000, alpha, beta, 4)
	fmt.Printf("ring %.0f ms, GCE %.0f ms\n", ring*1000, gce*1000)
	// Output: ring 42 ms, GCE 8 ms
}
