package ct

// Position returns the monitor's next index.
func (m *Monitor) Position() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next
}
