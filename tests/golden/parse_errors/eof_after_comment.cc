main { p.1 -> q.x; end
  # the closing brace is missing