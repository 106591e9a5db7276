package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLineHelpers(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	if LineOffset(0x1234) != 0x34 {
		t.Errorf("LineOffset(0x1234) = %#x", LineOffset(0x1234))
	}
	if !SameLine(0x1200, 0x123F) || SameLine(0x123F, 0x1240) {
		t.Error("SameLine misclassifies")
	}
}

func TestImageReadWrite(t *testing.T) {
	im := NewImage()
	if im.Read64(0x1000) != 0 {
		t.Error("fresh image not zero")
	}
	im.Write64(0x1000, 0xDEADBEEFCAFE)
	if got := im.Read64(0x1000); got != 0xDEADBEEFCAFE {
		t.Errorf("Read64 = %#x", got)
	}
	im.Write32(0x2000, 0x12345678)
	if got := im.Read32(0x2000); got != 0x12345678 {
		t.Errorf("Read32 = %#x", got)
	}
	im.SetByte(0x3000, 0xAB)
	if got := im.ByteAt(0x3000); got != 0xAB {
		t.Errorf("ByteAt = %#x", got)
	}
}

// TestImageRoundTripQuick is a property test: any byte slice written at
// any address reads back identically, including across page boundaries.
func TestImageRoundTripQuick(t *testing.T) {
	f := func(addrSeed uint32, data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		// Bias addresses toward page boundaries to exercise spanning.
		addr := Addr(addrSeed)&^0xF + pageSize - 8
		im := NewImage()
		im.Write(addr, data)
		got := make([]byte, len(data))
		im.Read(addr, got)
		return bytes.Equal(data, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestImageLineOps(t *testing.T) {
	im := NewImage()
	var src, dst [LineSize]byte
	for i := range src {
		src[i] = byte(i * 3)
	}
	im.StoreLine(0x4000, &src)
	im.CopyLine(0x4000, &dst)
	if src != dst {
		t.Error("line round trip mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("unaligned CopyLine did not panic")
		}
	}()
	im.CopyLine(0x4001, &dst)
}

func TestImageClone(t *testing.T) {
	im := NewImage()
	im.Write64(0x1000, 42)
	c := im.Clone()
	c.Write64(0x1000, 99)
	if im.Read64(0x1000) != 42 {
		t.Error("clone aliases original")
	}
	if c.Read64(0x1000) != 99 {
		t.Error("clone write lost")
	}
}

func TestAddressSpacePredicates(t *testing.T) {
	if !IsPM(PMBase) || !IsPM(PMBase+PMSize-1) || IsPM(PMBase+PMSize) || IsPM(0) {
		t.Error("IsPM misclassifies")
	}
	if !IsDRAM(DRAMBase) || IsDRAM(PMBase) || IsDRAM(0) {
		t.Error("IsDRAM misclassifies")
	}
}

func TestCrashImageIsolation(t *testing.T) {
	m := NewMachine()
	addr := PMBase
	m.Persistent.Write64(addr, 1)
	img := m.CrashImage()
	m.Persistent.Write64(addr, 2)
	if img.Read64(addr) != 1 {
		t.Error("crash image mutated by later persists")
	}
}

func BenchmarkImageWrite64(b *testing.B) {
	im := NewImage()
	r := rand.New(rand.NewSource(1))
	addrs := make([]Addr, 1024)
	for i := range addrs {
		addrs[i] = Addr(r.Uint64() % (1 << 30))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Write64(addrs[i%len(addrs)], uint64(i))
	}
}

// TestFingerprintMatchesPerByteReference pins Fingerprint against the
// definitional per-byte FNV-1a fold over 64 KiB frames. The frame is
// spelled out here rather than taken from the package: it is the
// digest's definition, independent of the page size images allocate
// at. Any drift would silently re-key every golden digest in the repo,
// so the reference is longhand.
func TestFingerprintMatchesPerByteReference(t *testing.T) {
	const (
		frame    = 1 << 16
		topFrame = ^Addr(frame - 1)
	)
	// Every frame a trial writes, ascending; the last one ends at 2^64.
	frames := []Addr{0, frame, 2 * frame, 3 * frame, 4 * frame, 5 * frame, 6 * frame, 7 * frame, topFrame}
	reference := func(im *Image) uint64 {
		const (
			offset64 = 14695981039346656037
			prime64  = 1099511628211
		)
		h := uint64(offset64)
		mixByte := func(b byte) { h ^= uint64(b); h *= prime64 }
		for _, base := range frames {
			var data [frame]byte
			im.Read(base, data[:])
			if data == [frame]byte{} {
				continue
			}
			v := uint64(base)
			for i := 0; i < 8; i++ {
				mixByte(byte(v))
				v >>= 8
			}
			for _, b := range data {
				mixByte(b)
			}
		}
		return h
	}
	check := func(name string, im *Image) {
		t.Helper()
		if got, want := im.Fingerprint(), reference(im); got != want {
			t.Fatalf("%s: Fingerprint %#x != per-byte reference %#x", name, got, want)
		}
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		im := NewImage()
		// Mix of patterns the fast path must get right: isolated bytes,
		// word-straddling runs, fully-zero frames (skipped), and bytes
		// at frame and page edges.
		for i := 0; i < 40; i++ {
			base := Addr(rng.Intn(6)) * frame
			switch rng.Intn(5) {
			case 0:
				im.SetByte(base+Addr(rng.Intn(frame)), byte(rng.Intn(256)))
			case 1:
				off := rng.Intn(frame - 16)
				buf := make([]byte, 1+rng.Intn(16))
				rng.Read(buf)
				im.Write(base+Addr(off), buf)
			case 2:
				im.Write64(base+Addr(rng.Intn(frame/8))*8, rng.Uint64())
			case 3:
				im.SetByte(base+Addr(frame-1), byte(rng.Intn(256)))
			case 4: // straddle a page boundary inside the frame
				pg := 1 + rng.Intn(frame/PageBytes-1)
				im.Write64(base+Addr(pg*PageBytes-4), rng.Uint64()|1)
			}
		}
		// Touch a frame without making it nonzero: must hash as absent.
		im.SetByte(6*frame, 0)
		check(fmt.Sprintf("trial %d", trial), im)
	}

	// Bytes spread over several pages of one frame, with absent pages
	// between them.
	for trial := 0; trial < 20; trial++ {
		im := NewImage()
		for i := 0; i < 1+rng.Intn(12); i++ {
			pg := rng.Intn(frame / PageBytes)
			im.SetByte(frame+Addr(pg*PageBytes+rng.Intn(PageBytes)), byte(1+rng.Intn(255)))
		}
		check(fmt.Sprintf("spread trial %d", trial), im)
	}

	// A frame whose only page was touched with zeros hashes as absent,
	// next to a nonzero frame and alone.
	im := NewImage()
	im.SetByte(3*frame+5*PageBytes+17, 0)
	check("zero-touched frame alone", im)
	if im.Fingerprint() != NewImage().Fingerprint() {
		t.Error("a frame touched only with zeros must hash as the empty image")
	}
	im.SetByte(2*frame+3, 9)
	check("zero-touched frame beside a nonzero one", im)

	// A frame's last 4 KiB only: every page before it is absent. Also
	// at the top of the address space, where the frame's last page ends
	// at 2^64.
	for _, base := range []Addr{4 * frame, topFrame} {
		im := NewImage()
		buf := make([]byte, PageBytes)
		rng.Read(buf)
		im.Write(base+frame-PageBytes, buf)
		check(fmt.Sprintf("last page of frame %#x", uint64(base)), im)
	}
}
