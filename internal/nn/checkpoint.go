package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
)

// The checkpoint format, version 1, is the one byte layout of model and
// training state; no other code knows it. Everything is little-endian:
//
//	magic      8 bytes "NNCKPT\r\n"
//	version    uint32 ckptVersion
//	step       uint64 trainer step; 0 in a model-only blob
//	optimizer  uint16 length + Optimizer.Name(); empty in a model-only blob
//	counter    uint64 the optimizer's own step counter (Adam's t), else 0
//	table      uint32 section count; per section a uint16 name length,
//	           the name and a uint64 float64 count
//	slabs      every section's float64s, in table order
//	crc        uint32 CRC-32C (Castagnoli) of every byte before it
//
// The table follows the destination: each parameter in Params() order
// under its Name, each state tensor in States() order as "state<i>", then
// per parameter each optimizer slot as "<param>/<slot>". An optimizer
// section of count 0 is a buffer not created yet; a parameter has all of
// its slots or none. A layout change bumps ckptVersion, and a decoder
// reads its own version only (the older gob blobs cannot be read).
const (
	ckptMagic   = "NNCKPT\r\n"
	ckptVersion = 1
	// ckptFixed is the size of a blob with no optimizer and no sections.
	ckptFixed = len(ckptMagic) + 4 + 8 + 2 + 8 + 4 + 4
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	le         = binary.LittleEndian
)

// SaveModel serializes a model's parameters and non-trainable state
// (batch-norm running statistics) as a model-only checkpoint, which
// restores identical inference behaviour. The error is always nil.
func SaveModel(m *Sequential) ([]byte, error) {
	return EncodeCheckpoint(m, nil, 0), nil
}

// LoadModel restores a SaveModel blob into a structurally identical model.
// Every check runs before any copy, so on error the model is unchanged.
func LoadModel(m *Sequential, blob []byte) error {
	c, err := DecodeCheckpoint(blob, m, nil)
	if err == nil {
		c.Apply()
	}
	return err
}

// section is one named float64 slab of a checkpoint.
type section struct {
	name string
	data []float64 // parameters and state tensors: live storage
	// Optimizer sections: the buffer's parameter and slot, the parameter's
	// index in the optimizer's run (-1 if it is not in it) and its offset.
	param         *Param
	slot, at, off int
	n             int // the count to write, or the count a checked blob holds
}

// ckptSections lists m's and opt's sections in table order, with opt's
// state and name (zero for a nil opt). An optimizer not bound to a run yet
// is listed as it will be once a load binds it: to m's parameters.
func ckptSections(m *Sequential, opt StatefulOptimizer) ([]section, *OptimizerState, string) {
	var st *OptimizerState
	kind := ""
	if opt != nil {
		st, kind = opt.State(), opt.Name()
	}
	params, states := m.Params(), m.States()
	secs := make([]section, 0, len(params)+len(states))
	for _, p := range params {
		secs = append(secs, section{name: p.Name, data: p.Value.Data(), n: p.Value.Size()})
	}
	for i, s := range states {
		secs = append(secs, section{name: "state" + strconv.Itoa(i), data: s.Data(), n: s.Size()})
	}
	if st == nil {
		return secs, nil, kind
	}
	run := st.run
	if st.slabs == nil {
		run = params
	}
	where, off := make(map[*Param][2]int, len(run)), 0
	for i, p := range run {
		where[p] = [2]int{i, off}
		off += p.Value.Size()
	}
	for _, p := range params {
		w, ok := where[p]
		for j, slot := range st.Slots {
			s := section{name: p.Name + "/" + slot, param: p, slot: j, at: -1}
			if ok {
				s.at, s.off = w[0], w[1]
				if st.slabs != nil && st.has[s.at] {
					s.n = p.Value.Size()
				}
			}
			secs = append(secs, s)
		}
	}
	return secs, st, kind
}

// EncodeCheckpoint returns the blob of m's parameters and state tensors,
// opt's buffers and counter (nil opt: a model-only blob), and step. It
// sizes the output once and writes it in one pass. A state that steps a
// span of its run (OptimizerState.Reserve) is written whole, read from
// every rank's shard once shared; it panics if a shard is missing.
func EncodeCheckpoint(m *Sequential, opt StatefulOptimizer, step int) []byte {
	secs, st, kind := ckptSections(m, opt)
	counter := 0
	if st != nil && st.Counter != nil {
		counter = *st.Counter
	}
	size := ckptFixed + len(kind)
	for _, s := range secs {
		size += 2 + len(s.name) + 8 + 8*s.n
	}
	b := le.AppendUint32(append(make([]byte, 0, size), ckptMagic...), ckptVersion)
	b = appendName(le.AppendUint64(b, uint64(step)), kind)
	b = le.AppendUint32(le.AppendUint64(b, uint64(counter)), uint32(len(secs)))
	for _, s := range secs {
		b = le.AppendUint64(appendName(b, s.name), uint64(s.n))
	}
	for _, s := range secs {
		if s.param == nil {
			b = appendFloats(b, s.data)
		} else if s.n > 0 {
			st.pieces(s.slot, s.off, s.off+s.n, func(x []float64) { b = appendFloats(b, x) })
		}
	}
	if len(b) != size-4 {
		panic("nn: checkpoint of an optimizer state that holds part of its run: share every rank's part first")
	}
	return le.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

func appendName(b []byte, name string) []byte {
	return append(le.AppendUint16(b, uint16(len(name))), name...)
}

// appendFloats appends x's little-endian bits to b, within b's capacity.
func appendFloats(b []byte, x []float64) []byte {
	off := len(b)
	b = b[:off+8*len(x)]
	for i, v := range x {
		le.PutUint64(b[off+8*i:], math.Float64bits(v))
	}
	return b
}

// Checkpoint is a blob that passed every check against one model and
// optimizer; Apply copies it into them.
type Checkpoint struct {
	Step    int // the trainer step the blob was written at
	counter int
	st      *OptimizerState
	params  []*Param // the run an unbound optimizer state binds to
	secs    []section
	slabs   []byte
}

// DecodeCheckpoint checks blob against m and opt (nil for a model-only
// blob): magic, version, CRC, the optimizer kind and counter, every
// section's name and count, and the slab length. It changes neither m nor
// opt, and allocates nothing whose size is read from the blob.
func DecodeCheckpoint(blob []byte, m *Sequential, opt StatefulOptimizer) (*Checkpoint, error) {
	if len(blob) < ckptFixed || string(blob[:len(ckptMagic)]) != ckptMagic {
		return nil, errors.New("nn: not a checkpoint (bad magic or too short)")
	}
	if v := le.Uint32(blob[len(ckptMagic):]); v != ckptVersion {
		return nil, fmt.Errorf("nn: checkpoint format version %d, this build reads version %d", v, ckptVersion)
	}
	body := blob[:len(blob)-4]
	if sum, want := crc32.Checksum(body, castagnoli), le.Uint32(blob[len(body):]); sum != want {
		return nil, fmt.Errorf("nn: checkpoint CRC %08x does not match its trailer %08x", sum, want)
	}
	secs, st, kind := ckptSections(m, opt)
	// The optimizer name and counter have the shape of a table entry.
	step := le.Uint64(body[len(ckptMagic)+4:])
	name, counter, off, ok := entry(body, len(ckptMagic)+12)
	if !ok || len(body)-off < 4 {
		return nil, errCkptTruncated
	}
	nsec := le.Uint32(body[off:])
	off += 4
	switch {
	case step > math.MaxInt || counter > math.MaxInt:
		return nil, fmt.Errorf("nn: checkpoint step %d or counter %d out of range", step, counter)
	case string(name) != kind:
		return nil, fmt.Errorf("nn: checkpoint holds optimizer state %q, destination optimizer is %q", name, kind)
	case (st == nil || st.Counter == nil) && counter != 0:
		return nil, fmt.Errorf("nn: checkpoint sets counter %d, optimizer %q keeps none", counter, kind)
	case int(nsec) != len(secs):
		return nil, fmt.Errorf("nn: checkpoint has %d sections, destination has %d", nsec, len(secs))
	}
	floats := 0
	for i := range secs {
		s := &secs[i]
		name, n, next, ok := entry(body, off)
		off = next
		want := uint64(len(s.data))
		if s.param != nil {
			want = uint64(s.param.Value.Size())
			if n == 0 {
				want = 0 // an absent optimizer buffer
			}
		}
		switch {
		case !ok:
			return nil, errCkptTruncated
		case string(name) != s.name:
			return nil, fmt.Errorf("nn: checkpoint section %d is %q, destination expects %q", i, name, s.name)
		case n != want:
			return nil, fmt.Errorf("nn: checkpoint section %q holds %d values, destination has %d", s.name, n, want)
		case s.param != nil && s.param == secs[i-1].param && n != uint64(secs[i-1].n):
			return nil, fmt.Errorf("nn: checkpoint has some of %s's optimizer buffers but not all", s.param.Name)
		case n > 0 && s.param != nil && s.at < 0:
			return nil, fmt.Errorf("nn: checkpoint holds optimizer state of %s, which the optimizer does not step", s.param.Name)
		}
		s.n = int(n)
		floats += s.n
	}
	if slab := len(body) - off; slab != 8*floats {
		return nil, fmt.Errorf("nn: checkpoint has %d slab bytes, its table needs %d", slab, 8*floats)
	}
	return &Checkpoint{Step: int(step), counter: int(counter), st: st, params: m.Params(), secs: secs, slabs: body[off:]}, nil
}

// Apply copies the checked blob into the model and optimizer it was checked
// against: values, state tensors, the optimizer's buffers over the span it
// steps (binding an unbound one to the model's parameters) with which of
// them exist, and the counter.
func (c *Checkpoint) Apply() {
	st, b := c.st, c.slabs
	if st != nil && st.slabs == nil {
		st.Reserve(c.params, 0, NumParams(c.params))
	}
	for _, s := range c.secs {
		switch {
		case s.param == nil:
			readFloats(s.data, b)
		case s.at >= 0:
			st.has[s.at] = s.n > 0
			lo, hi := max(s.off, st.lo), min(s.off+s.param.Value.Size(), st.hi)
			if lo >= hi {
				break
			}
			if dst := st.slabs[s.slot][lo-st.lo : hi-st.lo]; s.n == 0 {
				clear(dst)
			} else {
				readFloats(dst, b[8*(lo-s.off):])
			}
		}
		b = b[8*s.n:]
	}
	if st != nil && st.Counter != nil {
		*st.Counter = c.counter
	}
}

// readFloats fills dst from the little-endian bits at the start of b.
func readFloats(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(le.Uint64(b[8*i:]))
	}
}

var errCkptTruncated = errors.New("nn: checkpoint truncated inside its header or table")

// entry reads a uint16-length-prefixed name and the uint64 after it at
// b[off:], and the offset past them; ok is false if b ends first.
func entry(b []byte, off int) (name []byte, v uint64, next int, ok bool) {
	if len(b)-off < 2 || len(b)-off-10 < int(le.Uint16(b[off:])) {
		return nil, 0, off, false
	}
	l := int(le.Uint16(b[off:]))
	return b[off+2 : off+2+l], le.Uint64(b[off+2+l:]), off + 10 + l, true
}
