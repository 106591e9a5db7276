package mem

// The simulated physical address map. The DRAM region holds volatile
// program state (locks, indexes the paper keeps volatile such as the log
// tail pointer, scratch). The PM region holds recoverable state: data
// structures and undo logs. Persistence applies only to PM addresses;
// flushing a DRAM line is legal but has no effect on the persistent
// image, matching real hardware where CLWB of a DRAM line is a no-op for
// durability.
const (
	// DRAMBase is the first volatile address. Address 0 is left unmapped
	// so that 0 can serve as a null pointer in simulated data structures.
	DRAMBase Addr = 0x0000_0000_0001_0000
	// DRAMSize is the size of the volatile region.
	DRAMSize Addr = 1 << 32
	// PMBase is the first persistent address.
	PMBase Addr = 0x0000_0100_0000_0000
	// PMSize is the size of the persistent region.
	PMSize Addr = 1 << 36
)

// IsPM reports whether a lies in the persistent region.
func IsPM(a Addr) bool { return a >= PMBase && a < PMBase+PMSize }

// IsDRAM reports whether a lies in the volatile region.
func IsDRAM(a Addr) bool { return a >= DRAMBase && a < DRAMBase+DRAMSize }

// Machine bundles the volatile and persistent functional images of one
// simulated machine.
type Machine struct {
	// Volatile is the latest globally visible value of every location
	// (both DRAM and PM addresses). It is what loads observe.
	Volatile *Image
	// Persistent reflects only PM lines that have been accepted by the
	// ADR persistence domain. It is what a post-crash recovery observes.
	Persistent *Image
}

// NewMachine returns a machine with empty images.
func NewMachine() *Machine {
	return &Machine{Volatile: NewImage(), Persistent: NewImage()}
}

// CrashImage returns a copy-on-write clone of the persistent image,
// i.e. the PM contents a recovery process would observe if the machine
// lost power at this instant. The clone is writable (fault injection
// tears lines into it, recovery mutates it) at one COW fault per page
// touched; capture itself copies no page bytes.
func (m *Machine) CrashImage() *Image { return m.Persistent.Clone() }
