// Package storage models the MSA's storage modules: the Scalable Storage
// Service Module (SSSM — a striped parallel filesystem like the Lustre /
// GPFS installations at JSC, §II-A) and the Network Attached Memory
// prototype (NAM, §II-A: "sharing datasets over the network instead of
// duplicate downloads of datasets by individual research group members").
//
// The bandwidth model captures the two first-order effects of parallel
// filesystems: a single stream is limited by its stripe width, and
// concurrent streams contend for the aggregate OST bandwidth. Experiment
// E12 sweeps both and compares NAM-shared dataset access against
// per-researcher duplicate staging.
package storage

import (
	"fmt"

	"repro/internal/msa"
)

// SSSM is a striped parallel filesystem.
type SSSM struct {
	Spec msa.StorageSpec
}

// NewSSSM validates and wraps a storage spec.
func NewSSSM(spec msa.StorageSpec) *SSSM {
	if spec.OSTs <= 0 || spec.OSTBWGBs <= 0 {
		panic(fmt.Sprintf("storage: invalid SSSM spec %+v", spec))
	}
	return &SSSM{Spec: spec}
}

// AggregateBW returns the filesystem's total bandwidth in GB/s.
func (s *SSSM) AggregateBW() float64 {
	return float64(s.Spec.OSTs) * s.Spec.OSTBWGBs
}

// StreamBW returns the bandwidth one of `readers` concurrent streams
// achieves when each file is striped over `stripe` OSTs: the minimum of
// the stripe-limited single-stream bandwidth and a fair share of the
// aggregate.
func (s *SSSM) StreamBW(stripe, readers int) float64 {
	if stripe < 1 {
		stripe = 1
	}
	if stripe > s.Spec.OSTs {
		stripe = s.Spec.OSTs
	}
	if readers < 1 {
		readers = 1
	}
	single := float64(stripe) * s.Spec.OSTBWGBs
	share := s.AggregateBW() / float64(readers)
	if single < share {
		return single
	}
	return share
}

// ReadTime returns seconds for each of `readers` concurrent streams to
// read sizeGB with the given stripe width.
func (s *SSSM) ReadTime(sizeGB float64, stripe, readers int) float64 {
	if sizeGB < 0 {
		panic("storage: negative size")
	}
	return sizeGB / s.StreamBW(stripe, readers)
}

// NAM is the network-attached-memory module: far memory reachable by
// every module over the federation, at the spec's capacity, bandwidth and
// latency.
type NAM struct {
	Spec msa.NAMSpec
}

// NewNAM wraps a NAM spec.
func NewNAM(spec msa.NAMSpec) *NAM {
	if spec.CapacityGB <= 0 || spec.BWGBs <= 0 {
		panic(fmt.Sprintf("storage: invalid NAM spec %+v", spec))
	}
	return &NAM{Spec: spec}
}

// DuplicateDownloadTime models the workflow the NAM replaces: k group
// members each stage their own copy of the dataset from the SSSM
// concurrently (contending for OST bandwidth). Returns per-member time
// and total bytes moved from storage.
func DuplicateDownloadTime(k int, sizeGB float64, s *SSSM, stripe int) (perMember float64, totalGB float64) {
	if k < 1 {
		panic("storage: need at least one group member")
	}
	return s.ReadTime(sizeGB, stripe, k), sizeGB * float64(k)
}

// SharedNAMTime models the NAM workflow: the dataset is staged once into
// the NAM, then all k members read it from NAM memory (sharing NAM
// bandwidth). Returns the time until every member has the data and total
// bytes moved from storage.
func SharedNAMTime(k int, sizeGB float64, s *SSSM, nam *NAM, stripe int) (perMember float64, totalGB float64) {
	if k < 1 {
		panic("storage: need at least one group member")
	}
	stage := s.ReadTime(sizeGB, stripe, 1)
	// k concurrent readers share NAM bandwidth.
	read := sizeGB / (nam.Spec.BWGBs / float64(k))
	return stage + read + nam.Spec.LatencyUS*1e-6, sizeGB
}
