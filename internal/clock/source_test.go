package clock

import (
	"testing"
	"time"
)

func TestWallSource(t *testing.T) {
	before := time.Now()
	now := Wall.Now()
	if now.Before(before) {
		t.Fatalf("Wall.Now went backwards: %v < %v", now, before)
	}
	if d := Wall.Since(before); d < 0 {
		t.Fatalf("Wall.Since negative: %v", d)
	}
	tk := Wall.NewTicker(time.Millisecond)
	defer tk.Stop()
	select {
	case <-tk.C():
	case <-time.After(2 * time.Second):
		t.Fatal("wall ticker never fired")
	}
}

func TestManualNowAdvance(t *testing.T) {
	start := time.Unix(1000, 0)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", m.Now(), start)
	}
	m.Advance(3 * time.Second)
	if got := m.Since(start); got != 3*time.Second {
		t.Fatalf("Since = %v, want 3s", got)
	}
	// Never backwards.
	m.Advance(-time.Second)
	if got := m.Since(start); got != 3*time.Second {
		t.Fatalf("Advance moved time backwards: Since = %v", got)
	}
}

func TestManualTickerDeterministic(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	tk := m.NewTicker(10 * time.Millisecond)
	defer tk.Stop()

	// No time passed: no tick.
	select {
	case at := <-tk.C():
		t.Fatalf("unexpected tick at %v", at)
	default:
	}

	// Crossing one deadline delivers exactly one tick.
	m.Advance(10 * time.Millisecond)
	select {
	case <-tk.C():
	default:
		t.Fatal("tick not delivered after Advance(interval)")
	}
	select {
	case at := <-tk.C():
		t.Fatalf("extra tick at %v", at)
	default:
	}

	// Crossing many deadlines without draining coalesces (cap-1 channel).
	m.Advance(100 * time.Millisecond)
	n := 0
	for {
		select {
		case <-tk.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Fatalf("coalesced ticks = %d, want 1", n)
	}

	// After a drain, the schedule stays aligned to interval multiples.
	m.Advance(10 * time.Millisecond)
	select {
	case <-tk.C():
	default:
		t.Fatal("tick not delivered after re-advance")
	}
}

func TestManualTickerStop(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	tk := m.NewTicker(time.Millisecond)
	tk.Stop()
	m.Advance(time.Second)
	select {
	case at := <-tk.C():
		t.Fatalf("tick after Stop at %v", at)
	default:
	}
}

func TestManualMultipleTickersOrder(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	fast := m.NewTicker(5 * time.Millisecond)
	slow := m.NewTicker(20 * time.Millisecond)
	defer fast.Stop()
	defer slow.Stop()
	m.Advance(20 * time.Millisecond)
	select {
	case <-fast.C():
	default:
		t.Fatal("fast ticker missed")
	}
	select {
	case <-slow.C():
	default:
		t.Fatal("slow ticker missed")
	}
}
