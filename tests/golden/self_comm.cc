def X(c, s) {
  c.0 -> s.x;
  s.x -> s.y;
  end
}

main {
  call X
}
