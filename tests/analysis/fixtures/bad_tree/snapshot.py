# REP008 fixture: a play-mutated counter missing from the export_state()
# audit view.


class ForgetfulCollector:
    def __init__(self, t_th):
        self.t_th = float(t_th)
        self._threshold = float(t_th)
        self._streak = 0  # mutated in react(), absent from export_state()

    def react(self, last):
        if last.betrayal:
            self._streak += 1
        self._threshold = self.t_th - 0.01 * self._streak
        return self._threshold

    def reset(self):
        self._threshold = float(self.t_th)
        self._streak = 0

    def export_state(self):
        return {"threshold": self._threshold}


class CompleteCollector:
    # Near miss: the same shape, but export_state() covers every
    # mutated attribute.  Clean.
    def __init__(self, t_th):
        self.t_th = float(t_th)
        self._threshold = float(t_th)
        self._streak = 0

    def react(self, last):
        if last.betrayal:
            self._streak += 1
        self._threshold = self.t_th - 0.01 * self._streak
        return self._threshold

    def reset(self):
        self._threshold = float(self.t_th)
        self._streak = 0

    def export_state(self):
        return {"threshold": self._threshold, "streak": self._streak}
