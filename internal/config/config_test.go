package config

import (
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTableI(t *testing.T) {
	c := Default()
	// The headline Table I parameters, in cycles at 2 GHz (0.5 ns).
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"cores", uint64(c.Cores), 8},
		{"store queue", uint64(c.StoreQueueEntries), 64},
		{"persist queue", uint64(c.PersistQueueEntries), 16},
		{"strand buffers", uint64(c.StrandBuffers), 4},
		{"strand buffer entries", uint64(c.StrandBufferEntries), 4},
		{"L1 hit (2ns)", c.L1HitCycles, 4},
		{"L2 hit (16ns)", c.L2HitCycles, 32},
		{"L1 geometry 32kB/2way", uint64(c.L1Sets * c.L1Ways * 64), 32 * 1024},
		{"L2 geometry 28MB/16way", uint64(c.L2Sets * c.L2Ways * 64), 28 * 1024 * 1024},
		{"PM read (346ns)", c.PMReadCycles, 692},
		{"PM write to controller (96ns)", c.PMWriteToControllerCycles, 192},
		{"PM write to media (500ns)", c.PMWriteToMediaCycles, 1000},
		{"PM write queue", uint64(c.PMWriteQueueEntries), 64},
		{"PM read queue", uint64(c.PMReadQueueEntries), 32},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d", ch.name, ch.got, ch.want)
		}
	}
}

func TestPMControllersValidation(t *testing.T) {
	// 0 is the zero value (meaning 1 controller); powers of two are the
	// only other accepted counts — the address interleave is a mask.
	for _, n := range []int{0, 1, 2, 4, 8} {
		c := Default()
		c.PMControllers = n
		if err := c.Validate(); err != nil {
			t.Errorf("PMControllers=%d rejected: %v", n, err)
		}
	}
}

// TestCoresLimit: the directory's sharer set has one bit per core, so
// 64 cores is the largest machine, and the error names the limit.
func TestCoresLimit(t *testing.T) {
	c := Default()
	c.Cores = MaxCores
	if err := c.Validate(); err != nil {
		t.Errorf("Cores=%d rejected: %v", MaxCores, err)
	}
	c.Cores = MaxCores + 1
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("Cores=%d: error = %v, want one naming the 64-core limit", c.Cores, err)
	}
}

func TestValidateCatchesNonsense(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = MaxCores + 1 },
		func(c *Config) { c.StoreQueueEntries = -1 },
		func(c *Config) { c.PersistQueueEntries = 0 },
		func(c *Config) { c.StrandBuffers = 0 },
		func(c *Config) { c.StrandBufferEntries = 0 },
		func(c *Config) { c.PMBanks = 0 },
		func(c *Config) { c.PMWriteQueueEntries = 0 },
		func(c *Config) { c.L1Sets = 0 },
		func(c *Config) { c.L2Ways = 0 },
		func(c *Config) { c.PMControllers = -1 },
		func(c *Config) { c.PMControllers = 3 },
		func(c *Config) { c.PMControllers = 6 },
	}
	for i, mutate := range bad {
		c := Default()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
