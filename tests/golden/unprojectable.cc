main {
  if p.true then {
    q.1 -> p.y;
    end
  } else {
    end
  }
}
