package packet

import "sync"

// frameBuf wraps a frame buffer so the pool stores pointers: putting a
// raw []byte into a sync.Pool boxes the slice header, which allocates
// on every Put — exactly the per-frame allocation the pool exists to
// avoid. Wrappers circulate between framePool (full) and wrapPool
// (empty), so the steady state allocates nothing.
type frameBuf struct{ b []byte }

// framePool recycles encoded-frame buffers across TX pipelines and
// fabric hops. The TX path of a single message can encode hundreds of
// thousands of MTU-sized frames; recycling the buffers keeps the
// simulator's hot path free of per-packet allocations. The pool is
// shared by all engines (sync.Pool is safe for concurrent use, so the
// -j harness's parallel simulations may exchange buffers) and only ever
// holds plain byte slices, so it cannot leak simulation state between
// independent engines: every byte of a frame taken from the pool is rewritten by
// EncodeTo or CloneFrame before use.
var framePool = sync.Pool{
	New: func() any { return &frameBuf{b: make([]byte, 0, 2048)} },
}

// wrapPool holds empty frameBuf wrappers awaiting a PutBuf.
var wrapPool = sync.Pool{
	New: func() any { return new(frameBuf) },
}

// GetBuf returns an empty frame buffer from the pool. Grow it with
// append or hand it to Packet.EncodeTo; return it with PutBuf once the
// frame is no longer referenced anywhere.
func GetBuf() []byte {
	fb := framePool.Get().(*frameBuf)
	b := fb.b
	fb.b = nil
	wrapPool.Put(fb)
	return b[:0]
}

// PutBuf recycles a frame buffer. The caller must own buf exclusively
// and must not touch it afterwards. Buffers that did not come from
// GetBuf are accepted too (ownership is what matters, not origin).
func PutBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	fb := wrapPool.Get().(*frameBuf)
	fb.b = buf[:0]
	framePool.Put(fb)
}

// CloneFrame copies frame into a pooled buffer. The clone is owned by
// the caller (release with PutBuf or pass the ownership on).
func CloneFrame(frame []byte) []byte {
	return append(GetBuf(), frame...)
}
