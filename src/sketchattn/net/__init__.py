"""Minimal neural toolkit: tape autodiff (``autodiff``), LSTM attention and
CNN (``model``), Adam and checkpoints (``optim``), gradient checking
(``gradcheck``)."""
