package pki

// Issued returns how many certificates the CA has issued.
func (ca *CA) Issued() uint64 {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.counter
}
