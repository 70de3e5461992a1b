# r is told the outcome by s in one branch and by p in the other, so its
# two branch projections wait on different processes.
main {
  if p.true then {
    p -> s[left];
    s -> r[left];
    end
  } else {
    p -> s[right];
    p -> r[left];
    end
  }
}
