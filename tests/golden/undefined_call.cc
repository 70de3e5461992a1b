main { p.1 -> q.x; call Y }
