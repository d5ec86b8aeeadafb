package stream

// RingSlots returns a copy of every slot of the arrival ring, taken and
// free alike.
func RingSlots(s *Stream) []Event {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return append([]Event(nil), s.ring...)
}
