package fault

import (
	"testing"

	"repro/internal/core"
	"repro/internal/irb"
)

// quietRates spans the campaign rates the batch meets, from lanes that
// essentially never fire to lanes that fire at every draw.
var quietRates = []float64{1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9, 1}

// quietFuzzEntry is the IRB entry each IRB-insert opportunity starts
// from, so a strike shows as a difference from it.
var quietFuzzEntry = irb.Entry{Src1: 0x1111, Src2: 0x2222, Result: 0x3333}

// FuzzQuietMatchesProbing checks that skipping opportunities with the
// Quiet methods is exact, the property the batch core's due-opportunity
// schedule stands on. Two fresh injectors with the same spec meet the
// same sequence of FU, operand and IRB-insert opportunities. The first is
// probed at every one. The second is advanced by Quiet calls of
// fuzz-chosen steps and probed only where a step stops: at the first
// opportunity a step did not pass, or after a full step when the op asks
// for a probe. Wherever the second skips, the first must not fire;
// wherever it probes, both must return the same value, leave the same
// IRB entry and count the same faults.
//
// Each op is two bytes. The first picks the opportunity: its kind
// (low two bits mod 3), its architected seq (0–7, 0 being a wrong-path
// copy), PC (0, 4, 8 or 12), copy and operand. The second is the step of
// the Quiet call made there if one is due, and its top bit asks for a
// real probe after a full step.
func FuzzQuietMatchesProbing(f *testing.F) {
	f.Fuzz(func(t *testing.T, site, rate, maxFaults uint8, persistent bool, seed uint64, ops []byte) {
		mk := func() core.BatchableInjector {
			s := Sites()[site%4]
			if persistent {
				return &Persistent{
					Site:      s,
					PC:        seed % 4 * 4,
					Dup:       seed>>2&1 == 1,
					Which:     1 + int(seed>>3&1),
					Bit:       uint(seed >> 4 & 63),
					MaxFaults: uint64(maxFaults % 2),
				}
			}
			inj, err := New(Config{Site: s, Rate: quietRates[int(rate)%len(quietRates)],
				Seed: seed, MaxFaults: uint64(maxFaults % 2)})
			if err != nil {
				t.Fatal(err)
			}
			return inj
		}
		probed, skipped := mk(), mk()
		probedIRB, err := irb.New(irb.Default())
		if err != nil {
			t.Fatal(err)
		}
		skippedIRB, err := irb.New(irb.Default())
		if err != nil {
			t.Fatal(err)
		}

		// Per opportunity kind: how many upcoming opportunities the last
		// Quiet call passed, and whether the one after them must be probed
		// because the step stopped short.
		var passed [3]uint64
		var stopped [3]bool
		for op := 0; op+1 < len(ops); op += 2 {
			a, b := ops[op], ops[op+1]
			kind := int(a&3) % 3
			seq := uint64(a >> 2 & 7)
			pc := uint64(a>>5&3) * 4
			dup := a>>7 == 1
			which := 1 + int(a>>7)
			val := 0x9e3779b97f4a7c15 * uint64(op+1)
			if kind == 2 {
				cycle := uint64(op)
				probedIRB.Insert(cycle, pc, quietFuzzEntry)
				skippedIRB.Insert(cycle, pc, quietFuzzEntry)
			}
			call := func(inj core.BatchableInjector, scratch *irb.IRB) uint64 {
				switch kind {
				case 0:
					return inj.FUResult(seq, pc, dup, val)
				case 1:
					return inj.Operand(seq, pc, dup, which, val)
				}
				inj.AfterIRBInsert(pc, scratch)
				return val
			}

			before := probed.InjectedCount()
			want := call(probed, probedIRB)
			fired := probed.InjectedCount() != before

			skip := passed[kind] > 0
			if skip {
				passed[kind]--
			} else if !stopped[kind] && b&0x80 == 0 {
				step := uint64(b & 0x7f)
				if b&0x7f == 0x7f {
					step = 1 << 16
				}
				var q uint64
				switch kind {
				case 0:
					q = skipped.QuietFU(step)
				case 1:
					q = skipped.QuietOperand(step)
				case 2:
					q = skipped.QuietIRBInsert(step)
				}
				if q > step {
					t.Fatalf("op %d: Quiet(%d) passed %d opportunities", op/2, step, q)
				}
				stopped[kind] = q < step
				if q > 0 {
					skip = true
					passed[kind] = q - 1
				}
			}
			if skip {
				if fired || want != val {
					t.Fatalf("op %d (kind %d): skipped an opportunity at which the probed injector fired", op/2, kind)
				}
				continue
			}
			stopped[kind] = false
			if got := call(skipped, skippedIRB); got != want {
				t.Fatalf("op %d (kind %d): skipped injector returned %#x, probed %#x", op/2, kind, got, want)
			}
			if got, want := skipped.InjectedCount(), probed.InjectedCount(); got != want {
				t.Fatalf("op %d (kind %d): skipped injector counts %d faults, probed %d", op/2, kind, got, want)
			}
			if kind == 2 {
				pe, _ := probedIRB.Probe(pc)
				se, _ := skippedIRB.Probe(pc)
				if pe != se {
					t.Fatalf("op %d: IRB entry after the probe differs:\nskipped: %+v\nprobed:  %+v", op/2, se, pe)
				}
			}
		}
		if got, want := skipped.InjectedCount(), probed.InjectedCount(); got != want {
			t.Fatalf("end: skipped injector counts %d faults, probed %d", got, want)
		}
	})
}
