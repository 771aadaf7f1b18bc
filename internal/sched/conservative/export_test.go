package conservative

// Reservations returns the number of reservations s holds.
func Reservations(s *Sched) int { return len(s.resvs) }
