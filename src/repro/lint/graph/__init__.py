"""repro.lint.graph — the whole-program analysis plane.

The file-at-a-time rules (RL004–RL008, RL011) see one parsed file;
the invariants that actually hold the pipeline together span files:
determinism in anything a pool *worker* can reach, purity in anything a
*kernel* fans out to, a metric-name registry that matches its emission
sites, shared-memory segments whose ownership provably transfers.  This
package models the program so those rules can be stated over it:

* :mod:`.facts` extracts a plain-dict per-file fact record (module
  name, resolved imports, defined functions/classes, call sites, rule
  candidates) from each file's node index;
* :mod:`.project` assembles the facts into a :class:`Project`: the
  module graph, the name-resolution call graph, and the reachability
  universes the graph-aware rules (RL001, RL003, RL009, RL010) query.
"""

from ..index import module_name_for_path
from .facts import extract_facts
from .project import Project

__all__ = [
    "Project",
    "extract_facts",
    "module_name_for_path",
]
