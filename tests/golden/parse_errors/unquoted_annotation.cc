main { p.1 -> q.x @ note; end }
