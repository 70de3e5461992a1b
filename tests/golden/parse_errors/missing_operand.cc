main { p.; -> q.x; end }
